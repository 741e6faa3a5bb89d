(** Deterministic bounds of Section 5.2/5.3. *)

val s_max_requirement :
  control_message_size:int -> max_channels_on_link_pair:int -> int
(** Minimum [S^RCC_max] so every link's worst-case control burst fits one
    RCC message: x · y over the worst link pair. *)

val recovery_delay_bound : k:int -> backups:int -> d_max:float -> float
(** Γ ≤ (K−1)·D^RCC_max + 2(b−1)(K−1)·D^RCC_max: the failure-reporting
    bound, where K is the hop count of the connection's longest-route
    channel, plus the activation-retrial bound over its b backups.
    @raise Invalid_argument if [k < 1] or [backups < 1]. *)
