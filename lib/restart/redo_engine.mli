(** The redo engine for physiological logs: one analysis pass, one
    skip test and one page-LSN redo step, shared by every recoverer
    whose records each update one page — the physiological method, and
    the sharded store's eager and instant restarts.

    This is Figure 6 specialised to page-LSN redo. {!analyze} is the
    analysis step; {!surely_on_disk} and {!redo} are the redo test;
    {!walk} replays in LSN order, and {!Lazy_redo} replays per page in
    any order across pages. Both orders are conflict-respecting because
    every record touches one page (Theorem 3). *)

open Redo_storage
open Redo_wal

type analysis = private {
  dpt : Lsn.t array;
      (** Pid-indexed dirty-page table: the page's recLSN, or a value
          above every LSN if the page was clean at the crash. *)
  horizons : Lsn.t array;
      (** Pid-indexed shard-checkpoint horizons ([Lsn.zero] = none). *)
  slice : Record.t list;
      (** The redo slice: stable records from {!scan_start}, LSN order. *)
  analysis_scanned : int;  (** Records the analysis pass examined. *)
}

val scan_start : Log_manager.t -> Lsn.t
(** Where redo starts: the newest stable checkpoint's oldest recLSN, or
    the record after the checkpoint if that is older; LSN 1 without a
    checkpoint. *)

val analyze : Log_manager.t -> pages:int -> analysis
(** Rebuild the dirty-page table from the newest stable checkpoint and
    every later record, collect the stable shard horizons, and cut the
    redo slice. Every page id in the log must be below [pages]. *)

val surely_on_disk : analysis -> pid:int -> lsn:Lsn.t -> bool
(** The record is installed without reading its page: a shard horizon
    covers it, or the dirty-page table shows the page clean at the crash
    or first dirtied after the record. *)

val redo : Cache.t -> Record.t -> bool
(** The page-LSN redo step for one record: if the cached page's LSN is
    below the record's, apply the record with one [Cache.update] and
    return [true]; otherwise return [false]. Never logs.
    @raise Invalid_argument on a non-physiological record. *)

val walk :
  ?progress:(int -> unit) -> analysis -> Cache.t -> owns:(int -> bool) -> int * int
(** Replay the slice in LSN order into [cache], touching only pages for
    which [owns] holds; returns [(redone, skipped)] over those pages.
    A record is skipped if {!surely_on_disk} holds or {!redo} declines
    it. [progress] gets the number of slice records examined, every 64.
    @raise Invalid_argument on a record that is neither physiological
    nor a checkpoint. *)
