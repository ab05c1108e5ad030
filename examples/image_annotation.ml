(* The paper's Section VI experiment: a series of image-annotation tasks
   collecting 3, 5, 7, 9 and 11 answers under the majority-vote incentive
   (Shah-Zhou multiplicative mechanism specialised to tau/n-or-nothing).

   For each task size we report the per-phase wall-clock cost and the
   on-chain gas/bytes, mirroring the deployment the authors ran on their
   four-PC Ethereum test net.

   Run with:  dune exec examples/image_annotation.exe *)

open Zebralancer
open Zebra_chain

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* A synthetic image-annotation crowd: most workers see the true label,
   some guess (the paper's task is a multiple-choice problem). *)
let synthetic_answers ~n ~choices ~truth ~noise_every =
  List.init n (fun i -> if (i + 1) mod noise_every = 0 then (truth + 1) mod choices else truth)

let run_one sys ~n =
  let choices = 4 and truth = 2 in
  let budget = 30 * n in
  let answers = synthetic_answers ~n ~choices ~truth ~noise_every:4 in
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let workers = List.map (fun a -> (Protocol.get_ok (Protocol.enroll_r sys), a)) answers in
  let task, t_publish =
    time (fun () ->
        Protocol.get_ok (Protocol.publish_task_r sys ~requester
            ~policy:(Policy.Majority { choices }) ~n ~budget ()))
  in
  let _, t_collect =
    time (fun () ->
        Protocol.get_ok (Protocol.submit_answers_r sys ~task:task.Requester.contract ~workers))
  in
  let rewards, t_reward = time (fun () -> Protocol.get_ok (Protocol.reward_r sys task)) in
  let correct = List.length (List.filter (fun a -> a = truth) answers) in
  let paid = Array.fold_left ( + ) 0 rewards in
  Printf.printf "  n=%2d  publish %6.2fs   collect %6.2fs   reward %6.2fs   %d/%d correct, paid %d/%d\n%!"
    n t_publish t_collect t_reward correct n paid budget;
  assert (paid = correct * (budget / n))

let () =
  Printf.printf "=== Image annotation tasks (paper Section VI) ===\n%!";
  let sys = Protocol.create_system ~seed:"image-annotation" () in
  Printf.printf "collecting 3 / 5 / 7 / 9 / 11 labels per image:\n%!";
  List.iter (fun n -> run_one sys ~n) [ 3; 5; 7; 9; 11 ];
  Printf.printf "all tasks settled; chain height %d, total supply conserved: %b\n%!"
    (Network.height sys.Protocol.net)
    (Network.total_supply sys.Protocol.net = 1_000_000_000)
