(* Mobile crowdsensing with a reverse auction (paper Section IV: the model
   "captures the essence of many auction-based incentive mechanisms" when
   the submitted values are bids).

   A requester wants 3 sensor readings; 6 workers bid their price for the
   job.  The 3 cheapest win and are all paid the 4th-lowest bid (the
   classical truthful (k+1)-price auction), with the bids themselves kept
   confidential from the chain.

   Run with:  dune exec examples/sensing_auction.exe *)

open Zebralancer
open Zebra_chain

let () =
  Printf.printf "=== Crowdsensing reverse auction ===\n%!";
  let sys = Protocol.create_system ~seed:"sensing-auction" () in
  let bids = [ 7; 2; 9; 4; 12; 3 ] in
  let n = List.length bids in
  let policy = Policy.Reverse_auction { winners = 3; max_bid = 15 } in
  Printf.printf "6 workers bid (privately): %s\n%!"
    (String.concat ", " (List.map string_of_int bids));

  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let workers = List.map (fun b -> (Protocol.get_ok (Protocol.enroll_r sys), b)) bids in
  let task = Protocol.get_ok (Protocol.publish_task_r sys ~requester ~policy ~n ~budget:60 ()) in
  let wallets = Protocol.get_ok (Protocol.submit_answers_r sys ~task:task.Requester.contract
      ~workers) in
  Printf.printf "bids are on-chain only as ElGamal ciphertexts; nobody can undercut.\n%!";

  let rewards = Protocol.get_ok (Protocol.reward_r sys task) in
  Printf.printf "auction cleared (proved in zero knowledge):\n";
  List.iteri
    (fun i w ->
      let won = rewards.(i) > 0 in
      Printf.printf "  worker %d bid %2d -> %s (balance %d)\n" (i + 1) (List.nth bids i)
        (if won then Printf.sprintf "WON, paid %d" rewards.(i) else "lost")
        (Network.balance sys.Protocol.net (Wallet.address w)))
    wallets;
  let paid = Array.fold_left ( + ) 0 rewards in
  Printf.printf "total paid %d of budget 60; refund %d returned to the requester.\n%!" paid
    (Network.balance sys.Protocol.net (Wallet.address task.Requester.wallet));
  (* The three cheapest bids were 2, 3, 4; the clearing price is 7. *)
  assert (rewards = [| 0; 7; 0; 7; 0; 7 |])
