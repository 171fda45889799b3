(* The contents live in [chunk_bytes] chunks, allocated on first store;
   an unallocated chunk is [Bytes.empty] and reads as zeros.  Every store
   into a chunk widens the chunk's dirty range to cover it, so a
   write-through image rewrites only the bytes that changed since it last
   called [clean]: a one-sector inode update costs one sector, not a
   whole chunk. *)
let chunk_bytes = 65536

type t = {
  device_id : string;
  geometry : Geometry.t;
  clock : Amoeba_sim.Clock.t;
  chunks : Bytes.t array;
  dirty_from : int array;
  dirty_to : int array;
      (* chunk [i] is dirty in its bytes [[dirty_from.(i), dirty_to.(i))],
         clean when that range is empty *)
  stats : Amoeba_sim.Stats.t;
  bad_sectors : (int, unit) Hashtbl.t;
  mutable head : int;
  mutable failed : bool;
  mutable fault_hook : (sector:int -> count:int -> write:bool -> bool) option;
  mutable tracer : Amoeba_trace.Trace.ctx option;
}

exception Failure of string

let create ~id ~geometry ~clock =
  let count = (Geometry.capacity_bytes geometry + chunk_bytes - 1) / chunk_bytes in
  {
    device_id = id;
    geometry;
    clock;
    chunks = Array.make count Bytes.empty;
    dirty_from = Array.make count chunk_bytes;
    dirty_to = Array.make count 0;
    stats = Amoeba_sim.Stats.create (Printf.sprintf "disk:%s" id);
    bad_sectors = Hashtbl.create 7;
    head = 0;
    failed = false;
    fault_hook = None;
    tracer = None;
  }

let id t = t.device_id

let geometry t = t.geometry

let clock t = t.clock

let capacity_bytes t = Geometry.capacity_bytes t.geometry

(* Split the byte range [pos, pos + len) at chunk boundaries: [f i off at n]
   for each piece, [n] bytes at offset [off] of chunk [i] and offset [at]
   of the range, in address order. *)
let span ~pos ~len f =
  let stop = pos + len in
  let rec go p =
    if p < stop then begin
      let i = p / chunk_bytes and off = p mod chunk_bytes in
      let n = min (stop - p) (chunk_bytes - off) in
      f i off (p - pos) n;
      go (p + n)
    end
  in
  go pos

let contents t ~sector ~count =
  let sector_bytes = t.geometry.Geometry.sector_bytes in
  let buf = Bytes.create (count * sector_bytes) in
  span ~pos:(sector * sector_bytes) ~len:(Bytes.length buf) (fun i off at n ->
      let chunk = t.chunks.(i) in
      if Bytes.length chunk = 0 then Bytes.fill buf at n '\000' else Bytes.blit chunk off buf at n);
  buf

(* chunk [i], allocated if need be, with [n] bytes at [off] marked dirty:
   about to be stored into *)
let chunk_for_store t i ~off n =
  if Bytes.length t.chunks.(i) = 0 then
    t.chunks.(i) <- Bytes.make (min chunk_bytes (capacity_bytes t - (i * chunk_bytes))) '\000';
  t.dirty_from.(i) <- min t.dirty_from.(i) off;
  t.dirty_to.(i) <- max t.dirty_to.(i) (off + n);
  t.chunks.(i)

let store t ~sector data =
  span ~pos:(sector * t.geometry.Geometry.sector_bytes) ~len:(Bytes.length data) (fun i off at n ->
      Bytes.blit data at (chunk_for_store t i ~off n) off n)

let check_range t ~sector ~count ~op =
  if count <= 0 || sector < 0 || sector + count > t.geometry.Geometry.sector_count then
    invalid_arg
      (Printf.sprintf "Block_device.%s: range [%d, %d) out of bounds on %s" op sector
         (sector + count) t.device_id)

let charge t ~sector ~count ~write =
  let sequential = sector = t.head in
  let bytes = count * t.geometry.Geometry.sector_bytes in
  (match t.tracer with
  | None -> Amoeba_sim.Clock.advance t.clock (Geometry.access_us t.geometry ~sequential ~write bytes)
  | Some tr ->
    (* Split the access charge into its mechanical components.  The three
       spans advance exactly [Geometry.access_us] in total, so traced and
       untraced runs tell identical time. *)
    let g = t.geometry in
    let seek_us = if sequential then 0 else g.Geometry.avg_seek_us in
    let rotate_us =
      (if sequential then 0 else g.Geometry.rotation_us / 2)
      + if write then g.Geometry.rotation_us / 2 else 0
    in
    let xfer_us = g.Geometry.controller_us + Geometry.transfer_us g bytes in
    if seek_us > 0 then begin
      Amoeba_trace.Trace.begin_span tr ~layer:Amoeba_trace.Sink.Disk ~name:"disk.seek";
      Amoeba_sim.Clock.advance t.clock seek_us;
      Amoeba_trace.Trace.end_span tr
    end;
    if rotate_us > 0 then begin
      Amoeba_trace.Trace.begin_span tr ~layer:Amoeba_trace.Sink.Disk ~name:"disk.rotate";
      Amoeba_sim.Clock.advance t.clock rotate_us;
      Amoeba_trace.Trace.end_span tr
    end;
    Amoeba_trace.Trace.begin_span tr ~layer:Amoeba_trace.Sink.Disk ~name:"disk.xfer";
    Amoeba_sim.Clock.advance t.clock xfer_us;
    Amoeba_trace.Trace.end_span_attrs tr
      [
        ("drive", Amoeba_trace.Sink.S t.device_id);
        ("sector", Amoeba_trace.Sink.I sector);
        ("count", Amoeba_trace.Sink.I count);
        ("bytes", Amoeba_trace.Sink.I bytes);
        ("write", Amoeba_trace.Sink.I (if write then 1 else 0));
      ]);
  if not sequential then Amoeba_sim.Stats.incr t.stats "seeks";
  t.head <- sector + count

let check_health t ~sector ~count ~write ~op =
  if t.failed then raise (Failure (Printf.sprintf "%s: drive failed during %s" t.device_id op));
  for s = sector to sector + count - 1 do
    if Hashtbl.mem t.bad_sectors s then
      raise (Failure (Printf.sprintf "%s: bad sector %d during %s" t.device_id s op))
  done;
  match t.fault_hook with
  | Some hook when hook ~sector ~count ~write ->
    (* A transient media error: this access fails, the next may succeed.
       The drive still burned the access time before reporting it. *)
    Amoeba_sim.Stats.incr t.stats "transient_errors";
    (match t.tracer with
    | None -> ()
    | Some tr ->
      Amoeba_trace.Trace.event tr ~layer:Amoeba_trace.Sink.Disk ~name:"disk.transient_error"
        [ ("drive", Amoeba_trace.Sink.S t.device_id); ("sector", Amoeba_trace.Sink.I sector) ]);
    charge t ~sector ~count ~write;
    raise (Failure (Printf.sprintf "%s: transient error at sector %d during %s" t.device_id sector op))
  | _ -> ()

let read t ~sector ~count =
  check_range t ~sector ~count ~op:"read";
  check_health t ~sector ~count ~write:false ~op:"read";
  (match t.tracer with
  | None -> ()
  | Some tr -> Amoeba_trace.Trace.begin_span tr ~layer:Amoeba_trace.Sink.Disk ~name:"disk.read");
  charge t ~sector ~count ~write:false;
  (match t.tracer with
  | None -> ()
  | Some tr ->
    Amoeba_trace.Trace.end_span_attrs tr
      [ ("drive", Amoeba_trace.Sink.S t.device_id); ("sectors", Amoeba_trace.Sink.I count) ]);
  Amoeba_sim.Stats.incr t.stats "reads";
  Amoeba_sim.Stats.add t.stats "sectors_read" count;
  contents t ~sector ~count

let write t ~sector data =
  let sector_bytes = t.geometry.Geometry.sector_bytes in
  let len = Bytes.length data in
  if len = 0 || len mod sector_bytes <> 0 then
    invalid_arg "Block_device.write: data must be a positive multiple of the sector size";
  let count = len / sector_bytes in
  check_range t ~sector ~count ~op:"write";
  check_health t ~sector ~count ~write:true ~op:"write";
  (match t.tracer with
  | None -> ()
  | Some tr -> Amoeba_trace.Trace.begin_span tr ~layer:Amoeba_trace.Sink.Disk ~name:"disk.write");
  charge t ~sector ~count ~write:true;
  (match t.tracer with
  | None -> ()
  | Some tr ->
    Amoeba_trace.Trace.end_span_attrs tr
      [ ("drive", Amoeba_trace.Sink.S t.device_id); ("sectors", Amoeba_trace.Sink.I count) ]);
  Amoeba_sim.Stats.incr t.stats "writes";
  Amoeba_sim.Stats.add t.stats "sectors_written" count;
  store t ~sector data

let fail t = t.failed <- true

let repair t = t.failed <- false

let is_failed t = t.failed

let set_fault_hook t hook = t.fault_hook <- hook

let set_tracer t tracer = t.tracer <- tracer

let set_bad_sector t sector = Hashtbl.replace t.bad_sectors sector ()

let clear_bad_sector t sector = Hashtbl.remove t.bad_sectors sector

let copy_from ~src ~dst =
  if capacity_bytes src <> capacity_bytes dst then
    invalid_arg "Block_device.copy_from: drives differ in capacity";
  if src.failed then raise (Failure (src.device_id ^ ": drive failed during copy"));
  if dst.failed then raise (Failure (dst.device_id ^ ": drive failed during copy"));
  let bytes = capacity_bytes src in
  (* One sequential pass over each drive: the reads and writes overlap in
     practice, so charge the slower of the two plus one seek each. *)
  let pass g ~write = Geometry.access_us g ~sequential:false ~write bytes in
  Amoeba_sim.Clock.advance src.clock
    (max (pass src.geometry ~write:false) (pass dst.geometry ~write:true));
  Array.iteri
    (fun i chunk ->
      if Bytes.length chunk > 0 then
        Bytes.blit chunk 0 (chunk_for_store dst i ~off:0 (Bytes.length chunk)) 0 (Bytes.length chunk)
      else if Bytes.length dst.chunks.(i) > 0 then begin
        let n = Bytes.length dst.chunks.(i) in
        Bytes.fill (chunk_for_store dst i ~off:0 n) 0 n '\000'
      end)
    src.chunks;
  Amoeba_sim.Stats.incr src.stats "full_copies_out";
  Amoeba_sim.Stats.incr dst.stats "full_copies_in";
  src.head <- 0;
  dst.head <- 0

let stats t = t.stats

let peek t ~sector ~count =
  check_range t ~sector ~count ~op:"peek";
  contents t ~sector ~count

let poke t ~sector data =
  let sector_bytes = t.geometry.Geometry.sector_bytes in
  let len = Bytes.length data in
  if len = 0 || len mod sector_bytes <> 0 then
    invalid_arg "Block_device.poke: data must be a positive multiple of the sector size";
  check_range t ~sector ~count:(len / sector_bytes) ~op:"poke";
  store t ~sector data

let iter_chunks t f =
  Array.iteri
    (fun i chunk -> if Bytes.length chunk > 0 then f ~offset:(i * chunk_bytes) chunk)
    t.chunks

let iter_dirty t f =
  Array.iteri
    (fun i from ->
      let until = t.dirty_to.(i) in
      if from < until then f ~offset:(i * chunk_bytes) t.chunks.(i) ~pos:from ~len:(until - from))
    t.dirty_from

let dirty t = Array.exists2 ( < ) t.dirty_from t.dirty_to

let clean t =
  Array.fill t.dirty_from 0 (Array.length t.dirty_from) chunk_bytes;
  Array.fill t.dirty_to 0 (Array.length t.dirty_to) 0
