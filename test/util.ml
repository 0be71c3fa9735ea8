(* Shared helpers for the test suites. *)

open Redo_core

let ids = Digraph.Node_set.of_list

let check_ids = Alcotest.(check (list string))

let set_elements s = Digraph.Node_set.elements s

let check_set msg expected actual =
  check_ids msg expected (set_elements actual)

let check_var_set msg expected actual =
  Alcotest.(check (list string)) msg expected (Var.Set.elements actual)

let state_testable universe =
  let pp ppf s = State.pp ppf (State.restrict s universe) in
  Alcotest.testable pp (State.equal_on universe)

let check_state ~universe msg expected actual =
  Alcotest.check (state_testable universe) msg expected actual

let check_value msg expected actual =
  Alcotest.check (Alcotest.testable Value.pp Value.equal) msg expected actual

let cg_of exec = Conflict_graph.of_exec exec

(* Bytes from a hex string, two digits per byte (golden byte images). *)
let of_hex h =
  String.init (String.length h / 2) (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

(* Run a qcheck property over deterministic seeds. *)
let qtest ?(count = 100) name prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name (QCheck.make (QCheck.Gen.int_bound 1_000_000)) prop)

let x = Scenario.x
let y = Scenario.y
