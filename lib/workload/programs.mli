(** The worker-enclave programs behind the workload mixes, shared by
    the round-bounded {!Workload.run} loop and the job-oriented
    {!Engine} the fleet layer drives. *)

(** The four traffic mixes. *)
type mix =
  | Compute  (** tight store loops; exercises enter / preempt / resume *)
  | Ipc  (** enclave pairs exchanging mailbox messages *)
  | Paging
      (** each enclave touches an unmapped address and self-pages via
          its registered fault handler (§V-A) *)
  | Churn
      (** short-lived enclaves; exits trigger probabilistic
          destroy + reclaim + reinstall *)

val mix_name : mix -> string

val mix_of_string : string -> (mix, string) result
(** Accepts ["compute"], ["ipc"], ["paging"], ["churn"]. *)

val all_mixes : mix list

val build_image : mix:mix -> rng:Sanctorum_util.Splitmix.t -> Sanctorum.Image.t
(** A worker image for [mix]; iteration counts and paging targets are
    drawn from [rng], so the image is a pure function of the stream
    position. *)

val le64 : int64 -> string
(** 8 little-endian bytes — how the OS writes peer eids into shared
    windows. *)
