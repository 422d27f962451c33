(* Table heap: rowid-addressed row storage.  Scan order is rowid order, as
   in a rowid table.  Rows live in a hash table; the sorted rowid order is
   cached, because scans outnumber the writes that change it: overwriting
   an existing rowid (UPDATE's in-place rewrite) keeps it, and only a new
   rowid, a delete or a clear drops it. *)

type t = {
  mutable rows : (int64, Row.t) Hashtbl.t;
  mutable next_rowid : int64;
  (* read-path profiling: full scans started and rows they produced *)
  mutable scans : int;
  mutable rows_scanned : int;
  mutable order : int64 list option; (* sorted rowids, [None] when stale *)
}

let create () =
  {
    rows = Hashtbl.create 16;
    next_rowid = 1L;
    scans = 0;
    rows_scanned = 0;
    order = None;
  }

let profile h = (h.scans, h.rows_scanned)

let note_scan h =
  h.scans <- h.scans + 1;
  h.rows_scanned <- h.rows_scanned + Hashtbl.length h.rows
let row_count h = Hashtbl.length h.rows

let alloc_rowid h =
  let id = h.next_rowid in
  h.next_rowid <- Int64.add id 1L;
  id

let insert h values =
  let rowid = alloc_rowid h in
  let row = Row.make ~rowid values in
  Hashtbl.replace h.rows rowid row;
  h.order <- None;
  row

(* Insert preserving a caller-chosen rowid (used by OR REPLACE re-insertion
   and by transaction rollback). *)
let insert_with_rowid h ~rowid values =
  if rowid >= h.next_rowid then h.next_rowid <- Int64.add rowid 1L;
  let row = Row.make ~rowid values in
  if not (Hashtbl.mem h.rows rowid) then h.order <- None;
  Hashtbl.replace h.rows rowid row;
  row

let delete h rowid =
  Hashtbl.remove h.rows rowid;
  h.order <- None

let find h rowid = Hashtbl.find_opt h.rows rowid

let rowids_sorted h =
  match h.order with
  | Some ids -> ids
  | None ->
      let ids =
        Hashtbl.fold (fun id _ acc -> id :: acc) h.rows []
        |> List.sort Int64.compare
      in
      h.order <- Some ids;
      ids

let iter f h =
  note_scan h;
  List.iter (fun id -> f (Hashtbl.find h.rows id)) (rowids_sorted h)

let to_list h =
  note_scan h;
  List.map (fun id -> Hashtbl.find h.rows id) (rowids_sorted h)

let clear h =
  Hashtbl.reset h.rows;
  h.next_rowid <- 1L;
  h.order <- None

let copy h =
  {
    rows = Hashtbl.copy h.rows;
    next_rowid = h.next_rowid;
    scans = 0;
    rows_scanned = 0;
    order = h.order;
  }

let deep_copy h =
  let rows = Hashtbl.create (Hashtbl.length h.rows) in
  Hashtbl.iter (fun id r -> Hashtbl.replace rows id (Row.copy r)) h.rows;
  {
    rows;
    next_rowid = h.next_rowid;
    scans = 0;
    rows_scanned = 0;
    order = h.order;
  }
