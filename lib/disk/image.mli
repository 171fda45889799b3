(** Host-file persistence for simulated drives.

    [bulletd] keeps its drives in image files so the stored files survive
    daemon restarts: the image records the drive geometry followed by the
    raw sector contents. The files are sparse: chunks the drive never
    wrote stay holes. Saving, loading and syncing are host I/O and charge
    no virtual time. *)

val save : Block_device.t -> string -> unit
(** Write the drive (geometry + contents) to the named file, atomically
    (a temporary file, fsynced, then renamed). Only allocated chunks are
    written; the rest of the file is a hole. *)

val load : id:string -> clock:Amoeba_sim.Clock.t -> string -> (Block_device.t, string) result
(** Recreate a drive from an image file. All-zero chunks stay
    unallocated, and the drive starts with no dirty chunk. *)

val load_or_create :
  id:string ->
  clock:Amoeba_sim.Clock.t ->
  geometry:Geometry.t ->
  string ->
  (Block_device.t * [ `Loaded | `Created ], string) result
(** Load the image if the file exists, otherwise a fresh zeroed drive of
    the given geometry. *)

type store
(** A drive bound to its image file, write-through: {!sync} makes the
    file hold exactly the drive's contents. *)

val open_store :
  id:string ->
  clock:Amoeba_sim.Clock.t ->
  geometry:Geometry.t ->
  string ->
  (store * [ `Loaded | `Created ], string) result
(** Load the drive from the image file, or, if there is none, create a
    fresh zeroed drive of the given geometry and a fresh image file for
    it: the header, then a hole of the full capacity. *)

val device : store -> Block_device.t

val sync : store -> int
(** Write the dirty range of every dirty chunk at its offset in the
    file, fsync, and mark the drive clean. Returns the number of chunks
    written to; with none
    dirty it does no I/O at all. Raises [Unix.Unix_error] if the host
    write fails, leaving the chunks dirty. *)

val close : store -> unit
