(** Requester client (off-chain): publishes tasks and produces reward
    instructions with their zk-SNARK proofs.

    The requester's secrets — her long-term CPLA key, the task encryption
    key [esk], and the SNARK proving key — never touch the chain; only the
    contract parameters, the budget and the proofs do. *)

type task = {
  wallet : Zebra_chain.Wallet.t;  (** the one-task-only address alpha_R *)
  contract : Zebra_chain.Address.t;  (** predicted alpha_C *)
  esk : Zebra_elgamal.Elgamal.secret_key Zebra_secret.Secret.t;
      (** the task decryption key, boxed — read it with [Secret.use] *)
  circuit : Reward_circuit.t;
  params : Task_contract.params;
}

(** Canary bytes of the boxed [esk] for the ZL2xx secret-flow lint (see
    {!Zebra_elgamal.Elgamal.secret_canary}). *)
val esk_canary : task -> bytes

(** [create_task ~circuit ~random_bytes ~cpla ~key ~cert_index ~ra_path
     ~ra_root ~wallet ~policy ~n ~budget ~answer_deadline ~instruct_deadline]
    prepares everything TaskPublish needs: a fresh ElGamal task key, the
    predicted contract address (from the wallet's current nonce, which the
    caller supplies as [nonce]), the anonymous attestation pi_R over
    [alpha_C || alpha_R], and the signed deployment transaction carrying
    the budget.

    [circuit] is the reward-circuit setup for [(policy, n)] — typically
    {!Reward_circuit.setup_cached}, so a requester running a batch of
    same-shape tasks (the paper's ImageNet-scale open question) pays the
    trusted setup once.  @raise Invalid_argument if its policy or arity
    does not match. *)
val create_task :
  circuit:Reward_circuit.t ->
  ?max_per_worker:int ->
  ?ra_rsa_pub:bytes ->
  ?data_digest:bytes ->
  ?fee:int ->
  random_bytes:(int -> bytes) ->
  cpla:Zebra_anonauth.Cpla.params ->
  key:Zebra_anonauth.Cpla.user_key ->
  cert_index:int ->
  ra_path:Fp.t array ->
  ra_root:Fp.t ->
  wallet:Zebra_chain.Wallet.t ->
  nonce:int ->
  policy:Policy.t ->
  n:int ->
  budget:int ->
  answer_deadline:int ->
  instruct_deadline:int ->
  unit ->
  task * Zebra_chain.Tx.t

(** [instruct ~random_bytes task ~storage ~nonce] computes the policy
    rewards, proves the instruction correct, and returns the rewards with
    the signed transaction; [?fee] (default 0) sets its inclusion
    priority. *)
val instruct :
  ?fee:int ->
  random_bytes:(int -> bytes) ->
  task ->
  storage:Task_contract.storage ->
  nonce:int ->
  int array * Zebra_chain.Tx.t

(** Like {!instruct} but sending an arbitrary (possibly wrong) reward
    vector, still honestly proved — used by tests to show that a lying
    vector cannot be proved, and by the false-reporting attack demo. *)
val instruct_with_rewards :
  ?fee:int ->
  random_bytes:(int -> bytes) ->
  task ->
  storage:Task_contract.storage ->
  nonce:int ->
  rewards:int array ->
  int array * Zebra_chain.Tx.t
