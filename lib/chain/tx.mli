(** Signed blockchain transactions.

    A transaction either creates a contract (naming a registered behaviour
    and its init arguments — the simulator's stand-in for EVM bytecode, see
    {!Contract}) or calls an existing contract/account with a payload.
    Transactions are signed over their canonical encoding; the sender
    address must be the hash of the embedded public key.

    {b Priority.}  [fee] is the sender's inclusion priority: the miner
    seals the mempool highest-fee-first (stable on arrival order, with
    same-sender sequences kept in nonce order — see
    {!Network.submit_r}).  The simulated chain does not price gas, so the
    fee is never charged; it only orders inclusion.

    As on Ethereum, a transaction declares no access set: every block
    runs its transactions one after another. *)

type dst =
  | Create of { behavior : string; args : bytes }
  | Call of Address.t

type t = private {
  sender : Address.t;
  sender_pk : Zebra_rsa.Rsa.public_key;
  nonce : int;
  dst : dst;
  value : int;
  fee : int;  (** inclusion priority; never charged *)
  payload : bytes;
  signature : bytes;
  hash : bytes;  (** {!hash}, computed once per value *)
  size : int;  (** {!size_bytes}, computed with the hash *)
}

(** [make_ext ~wallet ~fee ~footprint ~nonce ~dst ~value ~payload] builds
    and signs a transaction with an explicit inclusion fee.  [footprint]
    must be [\[\]]: it stays only for callers written when transactions
    declared the addresses they touch.
    @raise Invalid_argument on a negative [value] or [fee], or a non-empty
    [footprint]. *)
val make_ext :
  wallet:Wallet.t ->
  fee:int ->
  footprint:Address.t list ->
  nonce:int ->
  dst:dst ->
  value:int ->
  payload:bytes ->
  t

(** [make] is {!make_ext} with [fee = 0].
    @raise Invalid_argument on a negative [value]. *)
val make :
  wallet:Wallet.t -> nonce:int -> dst:dst -> value:int -> payload:bytes -> t

(** Signature valid, sender address consistent with the embedded key, and
    value/fee non-negative.  Each call adds one to the
    [chain.tx.signature_checks] counter.  Its three callers are
    {!Network.submit_r} at broadcast and the two sealers,
    {!Network.mine_ext} and {!Network.fork_tip}, once per candidate;
    {!State} never calls it. *)
val validate : t -> bool

(** Transaction hash: SHA-256 of the signed encoding ({!to_bytes}),
    computed once by the constructors ({!make_ext}, {!of_bytes},
    {!resend_as}) and carried with the value, so readers never re-encode. *)
val hash : t -> bytes

val to_bytes : t -> bytes
val of_bytes : bytes -> t

(** Total serialised size (the paper's on-chain byte cost): the length of
    {!to_bytes}, computed with {!hash} and carried with the value. *)
val size_bytes : t -> int

(**/**)

(** Test-only: forge a copy of [t] re-signed by [wallet] with a different
    sender (used by free-riding attack tests). *)
val resend_as : wallet:Wallet.t -> nonce:int -> t -> t
