module Codec = Zebra_codec.Codec
module Contract = Zebra_chain.Contract
module Address = Zebra_chain.Address

type storage = {
  operator : Address.t;
  auth_vk : bytes;
  root : Fp.t;
  history : Fp.t list;
}

let behavior_name = "zebralancer-ra"

let write_storage w st =
  Address.write w st.operator;
  Codec.bytes w st.auth_vk;
  Fp.write w st.root;
  Codec.list w Fp.write st.history

let read_storage r =
  let operator = Address.read r in
  let auth_vk = Codec.read_bytes r in
  let root = Fp.read r in
  let history = Codec.read_list r Fp.read in
  { operator; auth_vk; root; history }

let storage_of_bytes = Codec.decode read_storage

let init_args ~auth_vk ~root =
  Codec.encode
    (fun w () ->
      Codec.bytes w auth_vk;
      Fp.write w root)
    ()

let set_root_msg root = Codec.encode Fp.write root

module Behavior = struct
  type nonrec storage = storage

  let name = behavior_name
  let encode = Codec.encode write_storage
  let decode = Codec.decode read_storage

  let init (ctx : Contract.context) args =
    Codec.decode
      (fun r ->
        let auth_vk = Codec.read_bytes r in
        let root = Fp.read r in
        { operator = ctx.Contract.sender; auth_vk; root; history = [] })
      args

  let receive (ctx : Contract.context) st payload =
    if not (Address.equal ctx.Contract.sender st.operator) then
      raise (Contract.Revert "only the RA operator updates the root");
    let root = Codec.decode Fp.read payload in
    ({ st with root; history = st.root :: st.history }, [ Contract.Log "ra root updated" ])
end

let registered = ref false

let register () =
  if not !registered then begin
    Contract.register (module Behavior);
    registered := true
  end
