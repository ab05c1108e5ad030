(* A small marketplace: several requesters with different task types and
   incentive policies, overlapping worker pools, tasks interleaving in the
   same blocks — the deployment the paper's introduction motivates.

   Run with:  dune exec examples/marketplace.exe *)

open Zebralancer
open Zebra_chain

let () =
  Printf.printf "=== ZebraLancer marketplace ===\n%!";
  let sys = Protocol.create_system ~seed:"marketplace" () in

  (* Three requesters, five workers; everyone registers once. *)
  let requesters = List.init 3 (fun _ -> Protocol.get_ok (Protocol.enroll_r sys)) in
  let workers = Array.init 5 (fun _ -> Protocol.get_ok (Protocol.enroll_r sys)) in
  Printf.printf "registered 3 requesters and 5 workers\n%!";

  let jobs =
    [
      ( "image labels (majority)",
        List.nth requesters 0,
        Policy.Majority { choices = 4 },
        120,
        [ (0, 1); (1, 1); (2, 1); (3, 2) ] );
      ( "quality-gated survey (quota 3)",
        List.nth requesters 1,
        Policy.Majority_threshold { choices = 3; quota = 3 },
        90,
        [ (1, 0); (2, 0); (4, 0) ] );
      ( "sensing auction (2 winners)",
        List.nth requesters 2,
        Policy.Reverse_auction { winners = 2; max_bid = 12 },
        60,
        [ (0, 9); (2, 4); (3, 6); (4, 11) ] );
    ]
  in

  (* Publish all three tasks first (they share the chain), then let workers
     answer, then settle each. *)
  let published =
    List.map
      (fun (name, requester, policy, budget, assignment) ->
        let n = List.length assignment in
        let task = Protocol.get_ok (Protocol.publish_task_r sys ~requester ~policy ~n ~budget ()) in
        Printf.printf "published %-32s -> %s\n%!" name
          (Address.to_hex task.Requester.contract);
        (name, task, assignment))
      jobs
  in
  List.iter
    (fun (name, task, assignment) ->
      let pairs = List.map (fun (w, a) -> (workers.(w), a)) assignment in
      let _ = Protocol.get_ok (Protocol.submit_answers_r sys ~task:task.Requester.contract
          ~workers:pairs) in
      Printf.printf "collected %d answers for %s\n%!" (List.length pairs) name)
    published;
  List.iter
    (fun (name, task, assignment) ->
      let rewards = Protocol.get_ok (Protocol.reward_r sys task) in
      Printf.printf "%-32s rewards: %s (workers %s)\n%!" name
        (String.concat "," (List.map string_of_int (Array.to_list rewards)))
        (String.concat "," (List.map (fun (w, _) -> string_of_int (w + 1)) assignment)))
    published;

  Printf.printf "\nchain height %d; supply conserved: %b; replay agrees: %b\n%!"
    (Network.height sys.Protocol.net)
    (Network.total_supply sys.Protocol.net = 1_000_000_000)
    (Bytes.equal (Network.state_root sys.Protocol.net) (Network.replay sys.Protocol.net));
  Printf.printf
    "worker 3 served three different requesters; nothing on the chain links\n\
     those three participations to one person.\n%!"
