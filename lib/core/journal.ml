(* Append-only campaign checkpoint. One line per completed obligation:

     <fingerprint> <hex of Marshal(Engine.outcome)>\n

   preceded by a one-line format header. Hex keeps every record on a single
   newline-terminated line, so a SIGKILL mid-append truncates at most the
   last line — which the tolerant loader simply drops. *)

(* v2: Engine.outcome gained a perf record *)
let magic = "dicheck-journal-v3"

type t = {
  path : string;
  oc : out_channel;
  fsync : bool;
  lock : Mutex.t;
  replay : (string, Mc.Engine.outcome) Hashtbl.t;
}

let to_hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let of_hex s =
  if String.length s mod 2 <> 0 then invalid_arg "Journal.of_hex";
  String.init (String.length s / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let parse_line line =
  match String.index_opt line ' ' with
  | None -> None
  | Some i ->
    let key = String.sub line 0 i in
    let payload = String.sub line (i + 1) (String.length line - i - 1) in
    (match (Marshal.from_string (of_hex payload) 0 : Mc.Engine.outcome) with
     | outcome -> if key = "" then None else Some (key, outcome)
     | exception _ -> None)

let load path =
  match open_in_bin path with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match input_line ic with
        | exception End_of_file -> []
        | header when header <> magic ->
          Printf.eprintf
            "warning: journal %s is from another format version; ignoring it\n%!"
            path;
          []
        | _header ->
          let entries = ref [] in
          (* a truncated or garbled line (crash mid-append) ends the valid
             prefix: everything after it was written later and is dropped *)
          let rec go () =
            match input_line ic with
            | exception End_of_file -> ()
            | line -> (
              match parse_line line with
              | Some kv ->
                entries := kv :: !entries;
                go ()
              | None ->
                Printf.eprintf
                  "warning: journal %s has a truncated record; keeping the \
                   %d entries before it\n%!"
                  path (List.length !entries))
          in
          go ();
          List.rev !entries)

(* the replay table is fixed at open time: records appended during this run
   are deliberately NOT added, so whether an obligation reads as "replayed"
   never depends on how the executor scheduled its siblings *)
let entries t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.replay []

let replay t ~key =
  let r = Hashtbl.find_opt t.replay key in
  if r <> None then Obs.Telemetry.count "journal.replays";
  r

let replay_count t = Hashtbl.length t.replay

let create ?(resume = false) ?(fsync = true) path =
  let existing = if resume then load path else [] in
  let replay = Hashtbl.create 1024 in
  List.iter (fun (k, v) -> Hashtbl.replace replay k v) existing;
  let oc =
    if resume then
      open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path
    else begin
      let oc = open_out_bin path in
      output_string oc (magic ^ "\n");
      oc
    end
  in
  (* a fresh (non-resume) journal needs its header on disk before the first
     record; an empty resumed file needs one too *)
  if resume && existing = [] && (try (Unix.stat path).Unix.st_size = 0 with Unix.Unix_error _ -> false)
  then output_string oc (magic ^ "\n");
  flush oc;
  { path; oc; fsync; lock = Mutex.create (); replay }

let append t ~key outcome =
  Obs.Telemetry.count "journal.appends";
  let payload = to_hex (Marshal.to_string (outcome : Mc.Engine.outcome) []) in
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      output_string t.oc key;
      output_char t.oc ' ';
      output_string t.oc payload;
      output_char t.oc '\n';
      flush t.oc;
      if t.fsync then
        try Unix.fsync (Unix.descr_of_out_channel t.oc)
        with Unix.Unix_error _ -> ())

let close t = close_out_noerr t.oc

let path t = t.path
