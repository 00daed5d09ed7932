let poison = ref false
let fill b = Bytes.fill b 0 (Bytes.length b) '\xdb'

(* Every byte still the marker: word by word, then the tail. *)
let check b =
  let n = Bytes.length b and i = ref 0 in
  while !i + 8 <= n && Bytes.get_int64_ne b !i = 0xdbdbdbdbdbdbdbdbL do
    i := !i + 8
  done;
  while !i < n && Bytes.get b !i = '\xdb' do
    incr i
  done;
  if !i < n then
    failwith (Printf.sprintf "Buf_pool: byte %d of %d written after its give" !i n)

type t = {
  size : int;
  bound : int;
  mutable free : bytes array;  (* [free.(0 .. n - 1)] are free *)
  mutable marked : bool array;  (* [free.(i)] was filled at its give *)
  mutable n : int;
}

let create ?(bound = max_int) size = { size; bound; free = [||]; marked = [||]; n = 0 }

let take t =
  if t.n = 0 then Bytes.create t.size
  else begin
    t.n <- t.n - 1;
    if t.marked.(t.n) then check t.free.(t.n);
    t.free.(t.n)
  end

let give t b =
  if Bytes.length b <> t.size then
    invalid_arg (Printf.sprintf "Buf_pool.give: %d bytes, not %d" (Bytes.length b) t.size);
  if !poison then fill b;
  if t.n < t.bound then begin
    if t.n = Array.length t.free then begin
      let cap = min t.bound (max 8 (2 * t.n)) in
      t.free <- Array.append t.free (Array.make (cap - t.n) Bytes.empty);
      t.marked <- Array.append t.marked (Array.make (cap - t.n) false)
    end;
    t.free.(t.n) <- b;
    t.marked.(t.n) <- !poison;
    t.n <- t.n + 1
  end

module Scratch = struct
  type t = { mutable buf : bytes; mutable marked : bool }

  let create () = { buf = Bytes.empty; marked = false }

  let take t n =
    if t.marked then check t.buf;
    t.marked <- false;
    if Bytes.length t.buf < n then t.buf <- Bytes.create n;
    t.buf

  let give t =
    if !poison then begin
      fill t.buf;
      t.marked <- true
    end
end
