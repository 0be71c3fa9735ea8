(** CRC-32 (IEEE) for stable-log frame integrity: a torn or corrupted
    frame fails its checksum and ends the pre-recovery log scan. The
    implementation lives in {!Redo_obs.Checksum} (shared with the flight
    recorder's segment framing); this module re-exports it. *)

val update : int -> Bytes.t -> pos:int -> len:int -> int
(** [update crc b ~pos ~len] feeds bytes [pos .. pos+len-1] of [b] into
    a running CRC: start from 0, pass each result to the next call.
    Chaining over consecutive chunks equals one pass over their
    concatenation.
    @raise Invalid_argument if [pos]/[len] do not name a range of [b]. *)

val bytes : ?pos:int -> ?len:int -> Bytes.t -> int
(** [bytes ?pos ?len b] is [update 0 b ~pos ~len]; [pos] defaults to 0
    and [len] to the rest of [b].
    @raise Invalid_argument as {!update}. *)

val string : string -> int

val self_test : unit -> bool
(** [string "123456789" = 0xCBF43926]. *)
