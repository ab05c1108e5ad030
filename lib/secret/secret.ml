type 'a t = { label : string; value : 'a }

let make ~label value = { label; value }
let use s f = f s.value
let pp fmt s = Format.fprintf fmt "<secret:%s>" s.label

let min_canary_len = 8

let contains ~needle hay =
  let n = Bytes.length needle and h = Bytes.length hay in
  if n = 0 || n > h then false
  else begin
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i <= h - n do
      let j = ref 0 in
      while !j < n && Bytes.get hay (!i + !j) = Bytes.get needle !j do
        incr j
      done;
      if !j = n then found := true;
      incr i
    done;
    !found
  end

let rev b =
  let n = Bytes.length b in
  Bytes.init n (fun i -> Bytes.get b (n - 1 - i))

let leaks ~needle hay =
  Bytes.length needle >= 2 && (contains ~needle hay || contains ~needle:(rev needle) hay)
