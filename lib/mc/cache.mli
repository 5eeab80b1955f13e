(** Structural result cache for proof obligations.

    The key has two levels.
    - {b Module key.} The campaign digests each leaf module's body (its
      name cleared) together with the ordered list of its properties. This
      is cheap and needs no preparation. The cache's index maps (module
      key, property position, {!Obligation.key_salt}) to the property's
      cone fingerprint.
    - {b Cone fingerprint.} {!Obligation.fingerprint} of the prepared,
      cone-reduced netlist. The entries map it to an engine outcome, so
      structurally identical checks — sibling subunits within a chip
      category, or the post-fix re-campaign over unchanged modules — are
      answered without re-proving, even across modules whose bodies differ
      outside the property's cone.

    A campaign that finds every fingerprint of a module in the index skips
    that module's preparation entirely; it prepares only when an obligation
    misses both the journal and the entries. Thread-safe: a single cache
    may be shared by every worker of a parallel executor, and across
    campaign runs within one process. [save]/[load] persist both levels
    across processes; the format tag (bumped to v4 with the index)
    invalidates files from earlier builds, and must be bumped again
    whenever preparation changes, because a persisted index entry stands
    for the fingerprint preparation produced when it was written.

    A reused [Failed] verdict carries the counterexample trace of the
    obligation that first populated the entry; for a structurally identical
    sibling the trace is isomorphic but names the first sibling's signals. *)

type t

val create : unit -> t

val find : t -> key:string -> Engine.outcome option
(** Lookup that counts: a hit bumps [hits], a miss bumps [misses]. *)

val add : t -> key:string -> Engine.outcome -> unit
(** Insert (or overwrite) an entry. Callers that must not cache certain
    outcomes — e.g. the campaign excludes [Error] verdicts so a transient
    crash cannot poison structurally identical siblings — use
    {!find}/[add] directly instead of {!find_or_run}. *)

val find_fingerprint :
  t -> module_key:string -> pos:int -> salt:string -> string option
(** First-level lookup: the cone fingerprint recorded for property [pos]
    of the module with key [module_key] under strategy/budget [salt].
    Touches neither [hits] nor [misses]. *)

val add_fingerprint :
  t -> module_key:string -> pos:int -> salt:string -> string -> unit
(** Record a first-level entry (see {!find_fingerprint}). *)

val find_or_run : t -> key:string -> (unit -> Engine.outcome) -> Engine.outcome * bool
(** [find_or_run c ~key f] returns the cached outcome for [key] and [true],
    or runs [f], stores its outcome and returns it with [false]. [f] runs
    outside the cache lock, so concurrent misses on distinct keys proceed in
    parallel (two simultaneous misses on the same key may both run [f]; the
    engine is deterministic, so either result is the same). *)

val length : t -> int
(** Number of outcome entries; the first-level index is not counted. *)

val hits : t -> int
val misses : t -> int
val reset_stats : t -> unit
(** Zero the hit/miss counters, keeping the entries. *)

val save : t -> string -> unit
(** Persist entries and the first-level index to a file (OCaml [Marshal]
    behind a format tag).
    Atomic: the entries are written to a temp file, fsync'd and renamed
    over [path], so a crash mid-save can never leave a truncated cache. *)

val load : string -> t option
(** [None] if the file is missing, unreadable, truncated, corrupt, or from
    another format version; anything but "missing" warns on stderr.
    Never raises on bad file contents. Statistics start at zero. *)

val load_or_create : string -> t
