(** The worst-case (WC) baseline method of [25] (Murali et al.,
    ASP-DAC 2006), which this paper compares against.

    One synthetic use-case is built that subsumes the constraints of
    all use-cases — per ordered core pair, the *maximum* bandwidth and
    *minimum* latency found in any use-case — and the NoC is designed
    for that single use-case with a single shared resource state.  The
    over-specification grows with the number and diversity of
    use-cases, which is exactly what Figure 6 quantifies. *)

val synthetic : Noc_traffic.Use_case.t list -> Noc_traffic.Use_case.t
(** The worst-case use-case (id 0, name ["worst-case"]).
    @raise Invalid_argument on an empty list or mismatched cores. *)

val map_design :
  ?config:Noc_arch.Noc_config.t ->
  Noc_traffic.Use_case.t list ->
  (Mapping.t, Mapping.failure) result
(** Design the NoC with the WC method: build {!synthetic}, then run
    the same growth/mapping engine on it alone. *)

val overspecification : Noc_traffic.Use_case.t list -> float
(** Ratio of the synthetic use-case's total bandwidth to the largest
    real per-use-case total — a quick measure of how over-specified
    the WC design point is (1.0 = no overhead). *)
