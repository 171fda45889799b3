let magic = "BIMG0001"

let set_u32 buf off v =
  for i = 0 to 3 do
    Bytes.set buf (off + i) (Char.chr ((v lsr (8 * (3 - i))) land 0xff))
  done

let get_u32 buf off =
  let acc = ref 0 in
  for i = 0 to 3 do
    acc := (!acc lsl 8) lor Char.code (Bytes.get buf (off + i))
  done;
  !acc

let header_bytes = String.length magic + (6 * 4)

let encode_header (g : Geometry.t) =
  let buf = Bytes.create header_bytes in
  Bytes.blit_string magic 0 buf 0 (String.length magic);
  let base = String.length magic in
  set_u32 buf base g.Geometry.sector_bytes;
  set_u32 buf (base + 4) g.Geometry.sector_count;
  set_u32 buf (base + 8) g.Geometry.avg_seek_us;
  set_u32 buf (base + 12) g.Geometry.rotation_us;
  set_u32 buf (base + 16) g.Geometry.media_rate;
  set_u32 buf (base + 20) g.Geometry.controller_us;
  buf

let decode_header buf =
  if Bytes.length buf < header_bytes then Error "image truncated"
  else if Bytes.sub_string buf 0 (String.length magic) <> magic then Error "not a drive image"
  else begin
    let base = String.length magic in
    Ok
      {
        Geometry.sector_bytes = get_u32 buf base;
        sector_count = get_u32 buf (base + 4);
        avg_seek_us = get_u32 buf (base + 8);
        rotation_us = get_u32 buf (base + 12);
        media_rate = get_u32 buf (base + 16);
        controller_us = get_u32 buf (base + 20);
      }
  end

(* [Unix.write] repeats until the whole range is written *)
let write_range fd ~pos buf ~from ~len =
  ignore (Unix.lseek fd pos Unix.SEEK_SET : int);
  ignore (Unix.write fd buf from len : int)

let write_at fd ~pos buf = write_range fd ~pos buf ~from:0 ~len:(Bytes.length buf)

(* A fresh image file: the header, then the contents as one hole of the
   full capacity, which reads as zeros until chunks are written into it. *)
let create_file path geometry =
  let fd = Unix.openfile path Unix.[ O_RDWR; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  write_at fd ~pos:0 (encode_header geometry);
  Unix.ftruncate fd (header_bytes + Geometry.capacity_bytes geometry);
  fd

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let save device path =
  let temporary = path ^ ".tmp" in
  let fd = create_file temporary (Block_device.geometry device) in
  Fun.protect
    ~finally:(fun () -> close_noerr fd)
    (fun () ->
      Block_device.iter_chunks device (fun ~offset chunk ->
          write_at fd ~pos:(header_bytes + offset) chunk);
      Unix.fsync fd);
  Sys.rename temporary path

let load ~id ~clock path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let header = Bytes.create header_bytes in
        match really_input ic header 0 header_bytes with
        | exception End_of_file -> Error "image truncated"
        | () -> (
          match decode_header header with
          | Error e -> Error e
          | Ok geometry ->
            let device = Block_device.create ~id ~geometry ~clock in
            let capacity = Geometry.capacity_bytes geometry in
            let sector_bytes = geometry.Geometry.sector_bytes in
            (* a chunk at a time (whole sectors); all-zero pieces are
               skipped and so stay unallocated *)
            let piece =
              Bytes.create (sector_bytes * max 1 (Block_device.chunk_bytes / sector_bytes))
            in
            let zeros = Bytes.make (Bytes.length piece) '\000' in
            let rec fill offset =
              if offset >= capacity then begin
                Block_device.clean device;
                Ok device
              end
              else begin
                let len = min (Bytes.length piece) (capacity - offset) in
                match really_input ic piece 0 len with
                | exception End_of_file -> Error "image contents truncated"
                | () ->
                  let data, zero =
                    if len = Bytes.length piece then (piece, zeros)
                    else (Bytes.sub piece 0 len, Bytes.sub zeros 0 len)
                  in
                  if not (Bytes.equal data zero) then
                    Block_device.poke device ~sector:(offset / sector_bytes) data;
                  fill (offset + len)
              end
            in
            fill 0))

let load_or_create ~id ~clock ~geometry path =
  if Sys.file_exists path then
    match load ~id ~clock path with
    | Ok device -> Ok (device, `Loaded)
    | Error e -> Error e
  else Ok (Block_device.create ~id ~geometry ~clock, `Created)

(* The file always holds the device's contents except in its dirty
   chunks: a loaded device starts clean, a created one starts as a fresh
   file of holes. *)
type store = { device : Block_device.t; fd : Unix.file_descr }

let open_store ~id ~clock ~geometry path =
  match load_or_create ~id ~clock ~geometry path with
  | Error e -> Error e
  | Ok (device, `Loaded) ->
    Ok ({ device; fd = Unix.openfile path Unix.[ O_RDWR; O_CLOEXEC ] 0 }, `Loaded)
  | Ok (device, `Created) -> Ok ({ device; fd = create_file path geometry }, `Created)

let device store = store.device

let sync store =
  let written = ref 0 in
  Block_device.iter_dirty store.device (fun ~offset chunk ~pos ~len ->
      write_range store.fd ~pos:(header_bytes + offset + pos) chunk ~from:pos ~len;
      incr written);
  if !written > 0 then begin
    Unix.fsync store.fd;
    Block_device.clean store.device
  end;
  !written

let close store = close_noerr store.fd
