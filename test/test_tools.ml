(* Integration tests for the command-line tools (mkbullet, bullet_fsck),
   run as real subprocesses against image files. *)

open Helpers

let run command =
  let ic = Unix.open_process_in (command ^ " 2>&1") in
  let buf = Buffer.create 256 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status, Buffer.contents buf)

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let in_temp_dir f =
  let dir = Filename.temp_file "bullet_tools" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let keep = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir keep;
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    f

(* the test binary runs in _build/default/test; the tools are siblings *)
let tool name = Filename.concat (Filename.dirname Sys.executable_name) ("../bin/" ^ name ^ ".exe")

let mkbullet args = run (Filename.quote (tool "mkbullet") ^ " " ^ args)

let fsck args = run (Filename.quote (tool "bullet_fsck") ^ " " ^ args)

let test_mkbullet_and_clean_fsck () =
  in_temp_dir (fun () ->
      let status, out = mkbullet "d1.img d2.img --size-mb 4 --max-files 63" in
      check_bool "mkbullet ok" true (status = Unix.WEXITED 0);
      check_bool "reports geometry" true (contains out "63 inodes");
      let status, out = fsck "d1.img d2.img" in
      check_bool "fsck ok" true (status = Unix.WEXITED 0);
      check_bool "clean" true (contains out "consistency       clean");
      check_bool "no files" true (contains out "live files        0"))

let corrupt_inode_block path =
  (* image header is 32 bytes; inode block 1 starts at 32 + 512 *)
  let oc = open_out_gen [ Open_binary; Open_wronly ] 0o644 path in
  seek_out oc (32 + 512);
  output_bytes oc (payload 512);
  close_out oc

let test_fsck_repairs_corruption () =
  in_temp_dir (fun () ->
      let (_ : Unix.process_status * string) =
        mkbullet "d1.img d2.img --size-mb 4 --max-files 63"
      in
      corrupt_inode_block "d1.img";
      corrupt_inode_block "d2.img";
      let status, out = fsck "d1.img d2.img --repair" in
      check_bool "repair run ok" true (status = Unix.WEXITED 0);
      check_bool "repairs reported" true (contains out "repaired");
      check_bool "written back" true (contains out "repairs written back");
      let _, out = fsck "d1.img d2.img" in
      check_bool "clean afterwards" true (contains out "consistency       clean"))

let test_fsck_rejects_garbage_file () =
  in_temp_dir (fun () ->
      let oc = open_out "junk.img" in
      output_string oc "not an image";
      close_out oc;
      let status, out = fsck "junk.img" in
      check_bool "nonzero exit" true (status <> Unix.WEXITED 0);
      check_bool "explains" true (contains out "junk.img"))

let test_fsck_compact () =
  in_temp_dir (fun () ->
      let (_ : Unix.process_status * string) =
        mkbullet "d1.img d2.img --size-mb 4 --max-files 63"
      in
      let status, out = fsck "d1.img d2.img --compact" in
      check_bool "compact ok" true (status = Unix.WEXITED 0);
      check_bool "reports move" true (contains out "compaction");
      check_bool "saved" true (contains out "images saved"))

let test_fsck_clean_after_crash_reboot () =
  (* A server crashes mid-workload under a fault plan and reboots off the
     surviving disks; the image that survives must be one fsck calls
     clean — the crash may lose unsynced files, never consistency. *)
  in_temp_dir (fun () ->
      let b = make_bullet () in
      let module Server = Bullet_core.Server in
      let module Client = Bullet_core.Client in
      let module Plan = Amoeba_fault.Plan in
      let port = Server.port b.server in
      let server = ref b.server in
      let client =
        Client.connect ~attempts:8 ~backoff_us:50_000 b.transport port
      in
      (* durable files, then one p=0 file the crash is allowed to lose *)
      let durable = List.init 5 (fun i -> Client.create client ~p_factor:2 (payload (500 + i))) in
      let (_ : Amoeba_cap.Capability.t) = Client.create client ~p_factor:0 (payload 9) in
      let crash_at = Amoeba_sim.Clock.now b.rig.clock + 1_000 in
      let plan =
        Plan.create ~seed:0xF5CL
        |> fun p -> Plan.at p ~us:crash_at Plan.Server_crash
        |> fun p -> Plan.at p ~us:(crash_at + 200_000) Plan.Server_reboot
      in
      let on_crash () =
        Amoeba_rpc.Transport.unregister b.transport port;
        Server.crash !server
      in
      let on_reboot () =
        let booted, _ = Result.get_ok (Server.start ~config:small_bullet_config b.rig.mirror) in
        server := booted;
        Bullet_core.Proto.serve booted b.transport
      in
      let injector =
        Amoeba_fault.Injector.attach ~transport:b.transport ~mirror:b.rig.mirror ~on_crash
          ~on_reboot ~clock:b.rig.clock plan
      in
      Amoeba_sim.Clock.advance b.rig.clock 1_000;
      (* reads ride out the outage on retries *)
      List.iteri
        (fun i cap -> check_bytes "survives the crash" (payload (500 + i)) (Client.read client cap))
        durable;
      Amoeba_fault.Injector.detach injector;
      Amoeba_disk.Image.save b.rig.drive1 "d1.img";
      Amoeba_disk.Image.save b.rig.drive2 "d2.img";
      let status, out = fsck "d1.img d2.img" in
      check_bool "fsck ok" true (status = Unix.WEXITED 0);
      check_bool "image is clean after crash+reboot" true (contains out "consistency       clean");
      check_bool "durable files all present" true (contains out "live files        5"))

(* ---- the daemon, end to end over real TCP ---- *)

let port_open port =
  match Amoeba_rpc.Tcp.connect ~port () with
  | conn ->
    Amoeba_rpc.Tcp.close conn;
    true
  | exception Unix.Unix_error _ -> false

let wait_for_port port =
  let rec go attempts =
    if port_open port then true
    else if attempts = 0 then false
    else begin
      Unix.sleepf 0.1;
      go (attempts - 1)
    end
  in
  go 50

(* bulletd itself, not a shell around it, so the signals reach it; its
   output goes to bulletd.log *)
let start_daemon ?(args = []) data_dir port =
  check_bool "port free before start" false (port_open port);
  let argv =
    Array.of_list
      (tool "bulletd" :: "--port" :: string_of_int port :: "--data" :: data_dir
       :: "--size-mb" :: "8" :: "--max-files" :: "128" :: args)
  in
  let log = Unix.openfile "bulletd.log" Unix.[ O_WRONLY; O_CREAT; O_APPEND; O_CLOEXEC ] 0o644 in
  let pid = Unix.create_process argv.(0) argv Unix.stdin log log in
  Unix.close log;
  if not (wait_for_port port) then begin
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    Alcotest.fail "daemon did not come up"
  end;
  pid

let signal_daemon pid signal =
  Unix.kill pid signal;
  snd (Unix.waitpid [] pid)

(* SIGTERM must stop the daemon cleanly and free its port *)
let stop_daemon pid port =
  check_bool "daemon exits 0 on SIGTERM" true (signal_daemon pid Sys.sigterm = Unix.WEXITED 0);
  check_bool "port free after exit" false (port_open port)

let with_daemon ?args data_dir port f =
  let pid = start_daemon ?args data_dir port in
  match f () with
  | () -> stop_daemon pid port
  | exception e ->
    ignore (signal_daemon pid Sys.sigkill);
    raise e

let ctl port args =
  run (Printf.sprintf "%s %s --port %d" (Filename.quote (tool "bullet_ctl")) args port)

let test_daemon_end_to_end () =
  in_temp_dir (fun () ->
      let port = 17_000 + (Unix.getpid () mod 2_000) in
      let oc = open_out "hello.txt" in
      output_string oc "hello daemon";
      close_out oc;
      with_daemon "data" port (fun () ->
          let status, out = ctl port "store greeting hello.txt" in
          check_bool "store ok" true (status = Unix.WEXITED 0);
          check_bool "prints capability" true (contains out "greeting -> ");
          let persisted () =
            ( In_channel.with_open_bin "data/dir.cap" In_channel.input_all,
              List.map
                (fun image -> (Unix.stat image).Unix.st_mtime)
                [ "data/drive1.img"; "data/drive2.img" ] )
          in
          let before = persisted () in
          let _, out = ctl port "fetch greeting" in
          check_bool "fetch returns contents" true (contains out "hello daemon");
          let _, out = ctl port "ls" in
          check_bool "listed" true (contains out "greeting");
          let _, out = ctl port "stat" in
          check_bool "stat shows files" true (contains out "live files");
          (* reads take no checkpoint and write nothing to the images *)
          check_bool "reads leave dir.cap and the images alone" true (persisted () = before));
      (* restart on the same images: the name space survives *)
      with_daemon "data" port (fun () ->
          let status, out = ctl port "fetch greeting" in
          check_bool "fetch after restart" true (status = Unix.WEXITED 0);
          check_bool "contents survive restart" true (contains out "hello daemon");
          let _, _ = ctl port "del greeting" in
          let status, _ = ctl port "fetch greeting" in
          check_bool "deleted" true (status <> Unix.WEXITED 0)))

let test_daemon_fault_plan () =
  (* the daemon consults a deterministic plan per request frame: with
     "at 3 loss 1.0" the first two requests work and every later one is
     dropped on the real TCP carrier (connection closed, no reply) *)
  in_temp_dir (fun () ->
      let port = 19_000 + (Unix.getpid () mod 2_000) in
      let oc = open_out "plan.txt" in
      output_string oc "# drop everything from the third request frame on\nseed 7\nat 3 loss 1.0\n";
      close_out oc;
      with_daemon ~args:[ "--fault-plan"; "plan.txt" ] "data" port (fun () ->
          (* frames 1-2: hello + stat, delivered *)
          let status, out = ctl port "stat" in
          check_bool "first two frames delivered" true (status = Unix.WEXITED 0);
          check_bool "stat answered" true (contains out "live files");
          (* frame 3 onward: the hello of the next invocation is dropped *)
          let status, _ = ctl port "stat" in
          check_bool "third frame dropped on the wire" true (status <> Unix.WEXITED 0);
          let log = In_channel.with_open_text "bulletd.log" In_channel.input_all in
          check_bool "daemon announced the plan" true (contains log "fault plan loaded")))

let live_files port =
  let _, out = ctl port "stat" in
  List.find_map
    (fun line ->
      try Some (Scanf.sscanf line "live files %d" Fun.id)
      with Scanf.Scan_failure _ | End_of_file -> None)
    (String.split_on_char '\n' out)
  |> Option.value ~default:(-1)

let test_daemon_sigterm_mid_stream () =
  (* SIGTERM while a client streams CREATEs: the daemon finishes the
     request in flight, exits 0, and every acknowledged file is on the
     images when it restarts *)
  in_temp_dir (fun () ->
      let module Message = Amoeba_rpc.Message in
      let port = 21_000 + (Unix.getpid () mod 2_000) in
      let pid = start_daemon "data" port in
      let acked = Atomic.make 0 in
      let stream () =
        try
          let conn = Amoeba_rpc.Tcp.connect ~port () in
          let null_port = Amoeba_cap.Port.of_int64 0L in
          let hello = Amoeba_rpc.Tcp.trans conn (Message.request ~port:null_port ~command:0 ()) in
          let bullet = (Option.get hello.Message.cap).Amoeba_cap.Capability.port in
          while true do
            let reply =
              Amoeba_rpc.Tcp.trans conn
                (Message.request ~port:bullet ~command:Bullet_core.Proto.cmd_create ~arg0:2
                   ~body:(payload 3_000) ())
            in
            if reply.Message.status = Amoeba_rpc.Status.Ok then Atomic.incr acked
          done
        with Failure _ | Unix.Unix_error _ -> ()
      in
      let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
      let streamer = Thread.create stream () in
      let deadline = Unix.gettimeofday () +. 20. in
      while Atomic.get acked < 20 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.005
      done;
      let status = signal_daemon pid Sys.sigterm in
      Thread.join streamer;
      Sys.set_signal Sys.sigpipe sigpipe;
      let acked = Atomic.get acked in
      check_bool "creates were acknowledged" true (acked >= 20);
      check_bool "exit 0 on SIGTERM mid-stream" true (status = Unix.WEXITED 0);
      with_daemon "data" port (fun () ->
          check_bool "every acknowledged create survives" true (live_files port >= acked)))

let test_daemon_survives_kill_9 () =
  (* the reply to a P-FACTOR 2 store comes only once both images hold the
     file, so SIGKILL right after it loses nothing *)
  in_temp_dir (fun () ->
      let port = 23_000 + (Unix.getpid () mod 2_000) in
      (* spans several 64 KiB chunks *)
      let data = Bytes.init 200_000 (fun i -> Char.chr (((i * 131) + (i / 977)) land 0xff)) in
      Out_channel.with_open_bin "precious.bin" (fun oc -> Out_channel.output_bytes oc data);
      let pid = start_daemon "data" port in
      let status, _ = ctl port "store precious precious.bin --p-factor 2" in
      check_bool "store acknowledged" true (status = Unix.WEXITED 0);
      check_bool "killed" true (signal_daemon pid Sys.sigkill = Unix.WSIGNALED Sys.sigkill);
      List.iter
        (fun image ->
          let status, out = fsck image in
          check_bool (image ^ ": fsck exit 0") true (status = Unix.WEXITED 0);
          check_bool (image ^ ": clean") true (contains out "consistency       clean"))
        [ "data/drive1.img"; "data/drive2.img" ];
      with_daemon "data" port (fun () ->
          let status, _ = ctl port "fetch precious -o back.bin" in
          check_bool "fetch after kill -9" true (status = Unix.WEXITED 0);
          check_bytes "exact bytes" data
            (Bytes.of_string (In_channel.with_open_bin "back.bin" In_channel.input_all))))

let test_daemon_names_survive_kill_9 () =
  (* SIGKILL while a client streams directory updates, three times at
     different points of the checkpoint sequence: each restart restores
     the checkpoint, and every name acknowledged before a kill is bound *)
  in_temp_dir (fun () ->
      let module Message = Amoeba_rpc.Message in
      let module Dir_proto = Amoeba_dir.Dir_proto in
      let port = 25_000 + (Unix.getpid () mod 2_000) in
      let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
      let acknowledged = ref [] in
      for round = 1 to 3 do
        let pid = start_daemon "data" port in
        let acked = Atomic.make 0 and refused = Atomic.make false in
        let name i = Printf.sprintf "r%d-%d" round i in
        let stream () =
          try
            let conn = Amoeba_rpc.Tcp.connect ~port () in
            let null_port = Amoeba_cap.Port.of_int64 0L in
            let hello = Amoeba_rpc.Tcp.trans conn (Message.request ~port:null_port ~command:0 ()) in
            let dir_port = Amoeba_cap.Port.read hello.Message.body 0 in
            let root =
              Option.get
                (Amoeba_rpc.Tcp.trans conn
                   (Message.request ~port:dir_port ~command:Dir_proto.cmd_get_root ()))
                  .Message.cap
            in
            while true do
              let reply =
                Amoeba_rpc.Tcp.trans conn
                  (Message.request ~port:dir_port ~command:Dir_proto.cmd_enter ~cap:root
                     ~body:(Dir_proto.encode_named_cap root (name (Atomic.get acked)))
                     ())
              in
              if reply.Message.status = Amoeba_rpc.Status.Ok then Atomic.incr acked
              else Atomic.set refused true
            done
          with Failure _ | Unix.Unix_error _ -> ()
        in
        let streamer = Thread.create stream () in
        let deadline = Unix.gettimeofday () +. 20. in
        while Atomic.get acked < 5 && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.001
        done;
        Unix.sleepf (0.0013 *. float_of_int round);
        let status = signal_daemon pid Sys.sigkill in
        Thread.join streamer;
        check_bool "killed" true (status = Unix.WSIGNALED Sys.sigkill);
        check_bool "no enter refused" false (Atomic.get refused);
        check_bool "enters were acknowledged" true (Atomic.get acked >= 5);
        acknowledged := List.init (Atomic.get acked) name @ !acknowledged;
        with_daemon "data" port (fun () ->
            let _, out = ctl port "ls" in
            List.iter
              (fun n -> check_bool (n ^ " survives kill -9") true (contains out (n ^ " ")))
              !acknowledged)
      done;
      Sys.set_signal Sys.sigpipe sigpipe;
      let log = In_channel.with_open_text "bulletd.log" In_channel.input_all in
      check_bool "every restart restored the checkpoint" false (contains log "starting fresh"))

let test_daemon_rejects_bad_plan () =
  in_temp_dir (fun () ->
      let oc = open_out "plan.txt" in
      output_string oc "at ten drive_fail 0\n";
      close_out oc;
      let status, out =
        run
          (Printf.sprintf "%s --port 0 --data data --size-mb 4 --max-files 63 --fault-plan plan.txt"
             (Filename.quote (tool "bulletd")))
      in
      check_bool "refuses to start" true (status <> Unix.WEXITED 0);
      check_bool "says why" true (contains out "plan"))

(* ---- cluster-aware fsck: checkpoint vs inode tables ---- *)

module Cluster = Amoeba_cluster.Cluster

let write_text path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let save_member c name =
  let mirror = Cluster.server_mirror c name in
  Amoeba_disk.Mirror.drain mirror;
  List.iteri
    (fun i d -> Amoeba_disk.Image.save d (Printf.sprintf "%s-%d.img" name (i + 1)))
    (Amoeba_disk.Mirror.drives mirror)

let ctl_cluster args = run (Filename.quote (tool "bullet_ctl") ^ " cluster " ^ args)

let test_fsck_cluster_crosscheck () =
  in_temp_dir (fun () ->
      let c = Cluster.create () in
      List.iter
        (fun (name, region) -> Cluster.add_server c ~name ~region)
        [ ("ant", "west"); ("bee", "west"); ("cow", "east") ];
      ignore (Cluster.rebalance c);
      let keys = List.init 8 (fun i -> Printf.sprintf "k-%d" i) in
      List.iteri (fun i key -> Cluster.put c ~from:"west" ~key (payload (300 + i))) keys;
      write_text "clean.ck" (Cluster.checkpoint c);
      save_member c "ant";
      (* healthy cluster, on-disk replicas all backed: exit 0 *)
      let status, out = fsck "--cluster clean.ck --member ant=ant-1.img,ant-2.img" in
      check_bool "clean crosscheck ok" true (status = Unix.WEXITED 0);
      check_bool "replication fine" true (contains out "every object at 2 live copies");
      check_bool "inode tables back the directory" true
        (contains out "1 member(s) back every claimed replica");
      (* the offline status table agrees *)
      let status, out = ctl_cluster "clean.ck" in
      check_bool "ctl cluster ok" true (status = Unix.WEXITED 0);
      check_bool "table lists servers" true (contains out "ant");
      check_bool "nothing under-replicated" true (contains out "under-replicated 0");
      (* hand-seed under-replication: a kill recorded before the heal *)
      Cluster.kill_server c "bee";
      write_text "under.ck" (Cluster.checkpoint c);
      let status, out = fsck "--cluster under.ck" in
      check_bool "under-replication is exit 1" true (status = Unix.WEXITED 1);
      check_bool "reported per key" true (contains out "UNDER-REPLICATED");
      (* hand-seed a replica the directory claims but the disk lost:
         delete one of ant's objects behind the directory's back *)
      ignore (Cluster.rebalance c);
      write_text "healed.ck" (Cluster.checkpoint c);
      let info =
        match Cluster.parse_checkpoint (Cluster.checkpoint c) with
        | Ok info -> info
        | Error e -> Alcotest.failf "checkpoint does not parse: %s" e
      in
      let victim_cap =
        match
          List.find_map
            (fun (_key, holds) -> List.assoc_opt "ant" holds)
            info.Cluster.ck_objects
        with
        | Some cap -> cap
        | None -> Alcotest.fail "ant holds nothing"
      in
      (match Bullet_core.Server.delete (Cluster.server c "ant") victim_cap with
      | Ok () -> ()
      | Error st -> Alcotest.failf "delete failed: %s" (Amoeba_rpc.Status.to_string st));
      save_member c "ant";
      let status, out = fsck "--cluster healed.ck --member ant=ant-1.img,ant-2.img" in
      check_bool "lost replica is exit 1" true (status = Unix.WEXITED 1);
      check_bool "missing replica named" true (contains out "MISSING");
      check_bool "and the key under-replicated" true (contains out "UNDER-REPLICATED"))

let test_fsck_cluster_rejects_garbage () =
  in_temp_dir (fun () ->
      write_text "bad.ck" "shards 64\nreplicas 2\nfrobnicate\n";
      let status, out = fsck "--cluster bad.ck" in
      check_bool "nonzero exit" true (status = Unix.WEXITED 1);
      check_bool "line pinned" true (contains out "checkpoint line 3"))

let suite =
  ( "tools",
    [
      Alcotest.test_case "mkbullet then clean fsck" `Quick test_mkbullet_and_clean_fsck;
      Alcotest.test_case "fsck repairs corruption" `Quick test_fsck_repairs_corruption;
      Alcotest.test_case "fsck rejects garbage" `Quick test_fsck_rejects_garbage_file;
      Alcotest.test_case "fsck --compact" `Quick test_fsck_compact;
      Alcotest.test_case "fsck clean after crash+reboot" `Quick test_fsck_clean_after_crash_reboot;
      Alcotest.test_case "fsck --cluster cross-checks the directory" `Quick
        test_fsck_cluster_crosscheck;
      Alcotest.test_case "fsck --cluster rejects a malformed checkpoint" `Quick
        test_fsck_cluster_rejects_garbage;
      Alcotest.test_case "bulletd end to end over TCP" `Slow test_daemon_end_to_end;
      Alcotest.test_case "bulletd --fault-plan drops frames on TCP" `Slow test_daemon_fault_plan;
      Alcotest.test_case "bulletd exits 0 on SIGTERM mid-stream" `Slow
        test_daemon_sigterm_mid_stream;
      Alcotest.test_case "bulletd loses nothing acknowledged to kill -9" `Slow
        test_daemon_survives_kill_9;
      Alcotest.test_case "bulletd keeps acknowledged names across kill -9" `Slow
        test_daemon_names_survive_kill_9;
      Alcotest.test_case "bulletd rejects a malformed plan" `Quick test_daemon_rejects_bad_plan;
    ] )
