(* bulletd: the Bullet file server + directory service as a standalone
   daemon.

   The server logic, disk layout and capability protection are exactly
   the library's; the simulated mirrored drives persist in image files,
   and requests arrive as RPC frames over TCP instead of the simulated
   Ethernet. The images are write-through: before a request is answered,
   every chunk it changed on either drive is written to that drive's
   image and fsynced, so an acknowledged file survives kill -9. The
   directory service stores its directories as Bullet files and survives
   restarts through a checkpoint, taken after every request that changes
   a directory, whose capability is kept beside the images. Try:

     dune exec bin/bulletd.exe -- --port 7654 --data /tmp/bullet &
     dune exec bin/bullet_ctl.exe -- store notes notes.txt --port 7654
     dune exec bin/bullet_ctl.exe -- ls --port 7654
     dune exec bin/bullet_ctl.exe -- fetch notes --port 7654             *)

module Server = Bullet_core.Server
module Dir = Amoeba_dir.Dir_server
module Message = Amoeba_rpc.Message
module Status = Amoeba_rpc.Status
module Port = Amoeba_cap.Port

let cmd_hello = 0

(* [flusher job] starts a thread that runs [job] on demand.  Calling the
   result starts one run and returns a function that waits for it to end
   and re-raises what it raised; runs never overlap. *)
let flusher job =
  let start = Event.new_channel () and finished = Event.new_channel () in
  let (_ : Thread.t) =
    Thread.create
      (fun () ->
        while true do
          Event.sync (Event.receive start);
          let outcome = match job () with () -> Ok () | exception e -> Error e in
          Event.sync (Event.send finished outcome)
        done)
      ()
  in
  fun () ->
    Event.sync (Event.send start ());
    fun () -> Result.iter_error raise (Event.sync (Event.receive finished))

let run tcp_port data_dir size_mb max_files cache_mb fault_plan =
  (* SIGINT/SIGTERM stay pending until the daemon is up; see below *)
  let stop_signals = [ Sys.sigint; Sys.sigterm ] in
  ignore (Thread.sigmask Unix.SIG_BLOCK stop_signals : int list);
  if not (Sys.file_exists data_dir) then Unix.mkdir data_dir 0o755;
  let clock = Amoeba_sim.Clock.create () in
  let geometry = Amoeba_disk.Geometry.small ~sectors:(size_mb * 2048) in
  let open_drive name =
    match
      Amoeba_disk.Image.open_store ~id:name ~clock ~geometry
        (Filename.concat data_dir (name ^ ".img"))
    with
    | Ok (store, state) ->
      Printf.printf "drive %s: %s\n%!" name
        (match state with `Loaded -> "loaded from image" | `Created -> "created fresh");
      store
    | Error e ->
      Printf.eprintf "cannot open drive %s: %s\n" name e;
      exit 1
  in
  let drive1 = open_drive "drive1" in
  let drive2 = open_drive "drive2" in
  let mirror = Amoeba_disk.Mirror.create (List.map Amoeba_disk.Image.device [ drive1; drive2 ]) in
  (* write-through: what the drives hold reaches both image files. The
     two are independent drives, so they are synced at once: drive2 by a
     flusher thread of its own while the caller syncs drive1, and a
     request waits for the slower of the two fsyncs, not their sum. *)
  let sync store = ignore (Amoeba_disk.Image.sync store : int) in
  let flush_drive2 = flusher (fun () -> sync drive2) in
  let persist () =
    Amoeba_disk.Mirror.drain mirror;
    if Amoeba_disk.Block_device.dirty (Amoeba_disk.Image.device drive2) then begin
      let drive2_synced = flush_drive2 () in
      let drive1_synced = match sync drive1 with () -> Ok () | exception e -> Error e in
      drive2_synced ();
      Result.iter_error raise drive1_synced
    end
    else sync drive1
  in
  (* mkfs only if the image is brand new *)
  let formatted =
    match Bullet_core.Inode_table.load mirror with Ok _ -> true | Error _ -> false
  in
  if not formatted then begin
    Printf.printf "formatting fresh images (max %d files)\n%!" max_files;
    Server.format mirror ~max_files
  end;
  let config = { Server.default_config with Server.cache_bytes = cache_mb * 1024 * 1024 } in
  let server, report =
    match Server.start ~config mirror with
    | Ok v -> v
    | Error e ->
      Printf.eprintf "cannot start server: %s\n" e;
      exit 1
  in
  Printf.printf "bullet server on port %s: %d files, scan repaired %d\n%!"
    (Port.to_string (Server.port server))
    report.Bullet_core.Inode_table.files
    (List.length report.Bullet_core.Inode_table.repaired);
  (* the directory service stores directories as Bullet files; its own
     traffic rides an in-process transport *)
  let local_transport = Amoeba_rpc.Transport.create ~clock in
  (* It deletes the files a directory update or a checkpoint supersedes.
     Run at once, such a delete could reach the images while dir.cap
     still names the checkpoint that needs the file, so the directory
     service's deletes are held until dir.cap names a newer one. *)
  let held_deletes = Queue.create () in
  Amoeba_rpc.Transport.register local_transport (Server.port server) (fun request ->
      if request.Message.command = Bullet_core.Proto.cmd_delete then begin
        Queue.add request held_deletes;
        Message.reply ~status:Status.Ok ()
      end
      else Bullet_core.Proto.dispatch server request);
  let store = Bullet_core.Client.connect local_transport (Server.port server) in
  let dir_cap_path = Filename.concat data_dir "dir.cap" in
  let dirs =
    let restored =
      if Sys.file_exists dir_cap_path then begin
        let ic = open_in dir_cap_path in
        let line = input_line ic in
        close_in ic;
        match Dir.restore ~store (Amoeba_cap.Capability.of_string line) with
        | Ok dirs ->
          Printf.printf "directory service restored from checkpoint\n%!";
          Some dirs
        | Error e ->
          Printf.eprintf "checkpoint restore failed (%s); starting fresh\n%!"
            (Status.to_string e);
          None
      end
      else None
    in
    match restored with Some dirs -> dirs | None -> Dir.create ~store ()
  in
  Printf.printf "directory service on port %s\n%!" (Port.to_string (Dir.port dirs));
  let fsynced path flags f =
    let fd = Unix.openfile path (Unix.O_CLOEXEC :: flags) 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        f fd;
        Unix.fsync fd)
  in
  (* A kill at any point leaves dir.cap naming a readable checkpoint:
     the new checkpoint reaches both images, then dir.cap names it, and
     only then are the files it supersedes deleted. *)
  let checkpoint () =
    match Dir.checkpoint dirs with
    | Error e ->
      Printf.eprintf "checkpoint failed: %s\n%!" (Status.to_string e);
      Error e
    | Ok cap ->
      persist ();
      let temporary = dir_cap_path ^ ".tmp" in
      let line = Bytes.of_string (Amoeba_cap.Capability.to_string cap ^ "\n") in
      fsynced temporary Unix.[ O_WRONLY; O_CREAT; O_TRUNC ] (fun fd ->
          ignore (Unix.write fd line 0 (Bytes.length line) : int));
      Sys.rename temporary dir_cap_path;
      fsynced data_dir [ Unix.O_RDONLY ] ignore;
      Queue.iter
        (fun request -> ignore (Bullet_core.Proto.dispatch server request : Message.t))
        held_deletes;
      Queue.clear held_deletes;
      persist ();
      Ok cap
  in
  (* once at start-up, which also persists a fresh format *)
  ignore (checkpoint () : (Amoeba_cap.Capability.t, Status.t) result);
  (* --fault-plan: the daemon consults a deterministic injector before
     each frame. Plan times count {e request frames}, not microseconds —
     the injector gets a dedicated clock advanced by 1 per incoming
     request, so "at 5 loss 0.5" means "from the 5th request on". Drive
     events apply to the daemon's own mirror. *)
  let fault_clock = Amoeba_sim.Clock.create () in
  let injector =
    match fault_plan with
    | None -> None
    | Some path -> (
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Amoeba_fault.Plan.parse text with
      | Error e ->
        Printf.eprintf "cannot parse fault plan %s: %s\n" path e;
        exit 1
      | Ok plan ->
        Printf.printf "fault plan loaded from %s (%d events)\n%!" path
          (List.length (Amoeba_fault.Plan.steps plan));
        Some (Amoeba_fault.Injector.attach ~mirror ~clock:fault_clock plan))
  in
  let hello_reply () =
    (* bullet port in the capability slot, directory port in the body *)
    let body = Bytes.create Port.wire_size in
    Port.write (Dir.port dirs) body 0;
    Message.reply ~status:Status.Ok
      ~cap:
        (Amoeba_cap.Capability.v ~port:(Server.port server) ~obj:0 ~rights:Amoeba_cap.Rights.none
           ~check:0L)
      ~body ()
  in
  let dispatch request =
    if request.Message.command = cmd_hello && Port.equal request.Message.port (Port.of_int64 0L)
    then hello_reply ()
    else if Port.equal request.Message.port (Dir.port dirs) then begin
      let reply = Amoeba_dir.Dir_proto.dispatch dirs request in
      (* reads and lease grants change nothing a checkpoint holds *)
      let command = request.Message.command in
      if Amoeba_dir.Dir_proto.mutating command || Amoeba_dir.Dir_proto.txn_command command then
        ignore (checkpoint () : (Amoeba_cap.Capability.t, Status.t) result);
      reply
    end
    else Bullet_core.Proto.dispatch server request
  in
  (* held for each request; the stop thread takes it so it never exits
     in the middle of one *)
  let serving = Mutex.create () in
  let handler request =
    Mutex.protect serving @@ fun () ->
    let verdict =
      match injector with
      | None -> Amoeba_rpc.Transport.Deliver
      | Some inj ->
        Amoeba_sim.Clock.advance fault_clock 1;
        Amoeba_fault.Injector.verdict inj ~link:None request
    in
    let reply =
      match verdict with
      | Amoeba_rpc.Transport.Drop_request ->
        (* the request "never arrived": no execution, no reply *)
        None
      | Amoeba_rpc.Transport.Deliver -> Some (dispatch request)
      | Amoeba_rpc.Transport.Drop_reply | Amoeba_rpc.Transport.Corrupt_reply ->
        (* the server executes (side effects happen) but the client
           never hears back; a corrupted reply fails its checksum and
           is equally lost *)
        let (_ : Message.t) = dispatch request in
        None
      | Amoeba_rpc.Transport.Duplicate_request ->
        (* the frame arrives twice; xid dedup in the services absorbs
           the second execution of mutations *)
        let reply = dispatch request in
        let (_ : Message.t) = dispatch request in
        Some reply
    in
    (* durable before the reply leaves; a READ dirties nothing and so
       does no image I/O *)
    persist ();
    reply
  in
  let tcp = Amoeba_rpc.Tcp.listen ~port:tcp_port () in
  Printf.printf "listening on 127.0.0.1:%d (data in %s)\n%!" (Amoeba_rpc.Tcp.bound_port tcp)
    data_dir;
  (* Every reply is already durable, so stopping needs no image I/O: a
     dedicated thread takes SIGINT/SIGTERM (blocked in every other
     thread), waits out the request in flight by taking [serving], and
     exits. A client that hangs up must not kill the daemon. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let (_ : Thread.t) =
    Thread.create
      (fun () ->
        let (_ : int) = Thread.wait_signal stop_signals in
        Mutex.lock serving;
        Printf.printf "exiting\n%!";
        exit 0)
      ()
  in
  try Amoeba_rpc.Tcp.serve_forever tcp ~handler with Unix.Unix_error _ -> ()

open Cmdliner

let tcp_port =
  Arg.(value & opt int 7654 & info [ "port" ] ~docv:"PORT" ~doc:"TCP port to listen on.")

let data_dir =
  Arg.(
    value
    & opt string "./bullet-data"
    & info [ "data" ] ~docv:"DIR" ~doc:"Directory holding the drive images and checkpoint.")

let size_mb =
  Arg.(value & opt int 64 & info [ "size-mb" ] ~docv:"MB" ~doc:"Drive size for fresh images.")

let max_files =
  Arg.(value & opt int 2048 & info [ "max-files" ] ~docv:"N" ~doc:"Inode-table size for mkfs.")

let cache_mb =
  Arg.(value & opt int 12 & info [ "cache-mb" ] ~docv:"MB" ~doc:"RAM file cache size.")

let fault_plan =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-plan" ]
        ~docv:"FILE"
        ~doc:
          "Deterministic fault plan (see Amoeba_fault.Plan.parse). Plan times count request \
           frames: \"at 5 loss 0.5\" starts dropping from the 5th request. Dropped requests \
           and replies close the connection without answering.")

let cmd =
  let doc = "the Bullet file server daemon (contiguous immutable files, mirrored drives)" in
  Cmd.v
    (Cmd.info "bulletd" ~doc)
    Term.(const run $ tcp_port $ data_dir $ size_mb $ max_files $ cache_mb $ fault_plan)

let () = exit (Cmd.eval cmd)
