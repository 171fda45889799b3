type entry = { inode : int; mutable offset : int; length : int }

type t = {
  storage : Bytes.t;
  alloc : Extent_alloc.t;
  rnodes : entry option array; (* slot 0 unused: rnode indices are 1-based *)
  ages : int array;
      (* the LRU age of each rnode, [max_int] when free: a flat array, so
         the eviction scan reads consecutive ints and chases no pointers *)
  free_rnodes : int Stack.t;
  on_evict : inode:int -> rnode:int -> unit;
  stats : Amoeba_sim.Stats.t;
  evicted_bytes : Amoeba_metrics.Metrics.Counter.t;
  mutable tick : int;
  mutable resident : int;
  mutable used : int;
  mutable tracer : Amoeba_trace.Trace.ctx option;
}

let create ~capacity ~max_rnodes ~on_evict =
  if capacity < 0 then invalid_arg "Cache.create: negative capacity";
  if max_rnodes <= 0 then invalid_arg "Cache.create: need at least one rnode";
  let free_rnodes = Stack.create () in
  for i = max_rnodes downto 1 do
    Stack.push i free_rnodes
  done;
  {
    storage = Bytes.make capacity '\000';
    alloc = Extent_alloc.create ~start:0 ~length:capacity ();
    rnodes = Array.make (max_rnodes + 1) None;
    ages = Array.make (max_rnodes + 1) max_int;
    free_rnodes;
    on_evict;
    stats = Amoeba_sim.Stats.create "cache";
    evicted_bytes = Amoeba_metrics.Metrics.Counter.create ();
    tick = 0;
    resident = 0;
    used = 0;
    tracer = None;
  }

let set_tracer t tracer = t.tracer <- tracer

let capacity t = Bytes.length t.storage

let used_bytes t = t.used

let resident_files t = t.resident

let next_age t =
  t.tick <- t.tick + 1;
  t.tick

let refresh t rnode = t.ages.(rnode) <- next_age t

let entry t rnode =
  if rnode < 1 || rnode >= Array.length t.rnodes then
    invalid_arg (Printf.sprintf "Cache: rnode %d out of range" rnode);
  match t.rnodes.(rnode) with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Cache: rnode %d is free" rnode)

let drop t rnode =
  let e = entry t rnode in
  if e.length > 0 then Extent_alloc.free t.alloc ~start:e.offset ~length:e.length;
  t.rnodes.(rnode) <- None;
  t.ages.(rnode) <- max_int;
  Stack.push rnode t.free_rnodes;
  t.resident <- t.resident - 1;
  t.used <- t.used - e.length

(* the resident rnode with the smallest age, the lowest index on a tie *)
let lru t =
  let best = ref 0 in
  for i = 1 to Array.length t.ages - 1 do
    if t.ages.(i) < t.ages.(!best) then best := i
  done;
  if !best = 0 then None else Some (!best, entry t !best)

let evict_one t =
  match lru t with
  | None -> false
  | Some (rnode, e) ->
    drop t rnode;
    t.on_evict ~inode:e.inode ~rnode;
    Amoeba_sim.Stats.incr t.stats "evictions";
    Amoeba_metrics.Metrics.Counter.add t.evicted_bytes e.length;
    (match t.tracer with
    | None -> ()
    | Some tr ->
      Amoeba_trace.Trace.event tr ~layer:Amoeba_trace.Sink.Cache ~name:"cache.evict"
        [ ("inode", Amoeba_trace.Sink.I e.inode); ("bytes", Amoeba_trace.Sink.I e.length) ]);
    true

(* Allocate [n] bytes and an rnode, evicting LRU files until both succeed
   or the cache is empty and still too small. *)
let make_room t ~inode n =
  let rec go () =
    if Stack.is_empty t.free_rnodes then if evict_one t then go () else None
    else if n = 0 then Some (-1)
    else
      match Extent_alloc.alloc t.alloc n with
      | Some offset -> Some offset
      | None -> if evict_one t then go () else None
  in
  match go () with
  | None -> None
  | Some offset ->
    let rnode = Stack.pop t.free_rnodes in
    let offset = if n = 0 then 0 else offset in
    t.rnodes.(rnode) <- Some { inode; offset; length = n };
    refresh t rnode;
    t.resident <- t.resident + 1;
    t.used <- t.used + n;
    Amoeba_sim.Stats.incr t.stats "insertions";
    Some rnode

let reserve t ~inode n =
  if n < 0 then invalid_arg "Cache.reserve: negative size";
  if n > capacity t then None else make_room t ~inode n

let insert t ~inode data =
  match reserve t ~inode (Bytes.length data) with
  | None -> None
  | Some rnode ->
    let e = entry t rnode in
    Bytes.blit data 0 t.storage e.offset e.length;
    Some rnode

let get t ~rnode =
  let e = entry t rnode in
  refresh t rnode;
  Bytes.sub t.storage e.offset e.length

let sub t ~rnode ~pos ~len =
  let e = entry t rnode in
  if pos < 0 || len < 0 || pos + len > e.length then invalid_arg "Cache.sub: range out of bounds";
  refresh t rnode;
  Bytes.sub t.storage (e.offset + pos) len

let blit_in t ~rnode ~pos data =
  let e = entry t rnode in
  let len = Bytes.length data in
  if pos < 0 || pos + len > e.length then invalid_arg "Cache.blit_in: range out of bounds";
  Bytes.blit data 0 t.storage (e.offset + pos) len

let inode_of t ~rnode = (entry t rnode).inode

let length_of t ~rnode = (entry t rnode).length

let remove t ~rnode =
  let (_ : entry) = entry t rnode in
  drop t rnode

let touch t ~rnode =
  let (_ : entry) = entry t rnode in
  refresh t rnode

let compact t =
  (* Collect resident segments in address order and slide each down to the
     end of the previous one. *)
  let segments = ref [] in
  Array.iter
    (fun slot -> match slot with Some e when e.length > 0 -> segments := e :: !segments | _ -> ())
    t.rnodes;
  let ordered = List.sort (fun a b -> Int.compare a.offset b.offset) !segments in
  let moved = ref 0 in
  let next = ref 0 in
  let slide e =
    if e.offset <> !next then begin
      Bytes.blit t.storage e.offset t.storage !next e.length;
      Extent_alloc.free t.alloc ~start:e.offset ~length:e.length;
      Extent_alloc.reserve t.alloc ~start:!next ~length:e.length;
      e.offset <- !next;
      moved := !moved + e.length
    end;
    next := !next + e.length
  in
  List.iter slide ordered;
  Amoeba_sim.Stats.incr t.stats "compactions";
  Amoeba_sim.Stats.add t.stats "bytes_moved" !moved;
  !moved

let stats t = t.stats

let bytes_evicted t = Amoeba_metrics.Metrics.Counter.value t.evicted_bytes

let register_metrics t ~prefix reg =
  let module M = Amoeba_metrics.Metrics in
  M.register_counter reg (prefix ^ ".bytes_evicted") t.evicted_bytes;
  M.gauge reg (prefix ^ ".used_bytes") (fun () -> used_bytes t);
  M.gauge reg (prefix ^ ".capacity_bytes") (fun () -> capacity t);
  M.gauge reg (prefix ^ ".resident_files") (fun () -> resident_files t);
  M.stats_source reg ~prefix t.stats
