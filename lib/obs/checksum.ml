(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), sliced by 8.
   Implemented from scratch: the stable log uses it to detect torn or
   corrupted frames during the pre-recovery log scan.

   Slicing-by-8 folds eight input bytes per step through eight 256-entry
   tables kept in one flat array: slice [k] (entries [k*256 .. k*256+255])
   maps a byte to its CRC contribution after [k] further zero bytes, so
   the eight lookups of one step are independent of each other. Slice 0
   is the classic byte-at-a-time table, which finishes the last
   [len mod 8] bytes. The values are bit-identical to the byte loop. *)

let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let update crc b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Checksum.update";
  let crc = ref ((crc lxor 0xFFFFFFFF) land 0xFFFFFFFF) in
  let i = ref pos in
  let last8 = pos + len - 8 in
  while !i <= last8 do
    let one = (Int32.to_int (Bytes.get_int32_le b !i) lxor !crc) land 0xFFFFFFFF in
    let two = Int32.to_int (Bytes.get_int32_le b (!i + 4)) land 0xFFFFFFFF in
    (* Every index is below 8*256: a byte plus a slice offset. *)
    crc :=
      Array.unsafe_get table (0x700 + (one land 0xff))
      lxor Array.unsafe_get table (0x600 + ((one lsr 8) land 0xff))
      lxor Array.unsafe_get table (0x500 + ((one lsr 16) land 0xff))
      lxor Array.unsafe_get table (0x400 + (one lsr 24))
      lxor Array.unsafe_get table (0x300 + (two land 0xff))
      lxor Array.unsafe_get table (0x200 + ((two lsr 8) land 0xff))
      lxor Array.unsafe_get table (0x100 + ((two lsr 16) land 0xff))
      lxor Array.unsafe_get table (two lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    let byte = Char.code (Bytes.unsafe_get b j) in
    crc := Array.unsafe_get table ((!crc lxor byte) land 0xff) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let bytes ?(pos = 0) ?len b =
  let len = Option.value ~default:(Bytes.length b - pos) len in
  update 0 b ~pos ~len

let string s = bytes (Bytes.unsafe_of_string s)

let self_test () =
  (* The classic check value: CRC32("123456789") = 0xCBF43926. *)
  string "123456789" = 0xCBF43926
