(** Parameters of the NoC architecture being designed.

    The paper's §6.2 experiments fix 500 MHz and 32-bit links; other
    experiments sweep the frequency.  All mapping and verification code
    reads these knobs from one record so that sweeps only rebuild the
    configuration. *)

type routing =
  | Min_cost  (** least-cost path search (paper §5, following [20]) *)
  | Xy        (** dimension-ordered routing; deadlock-free by construction *)

type t = {
  freq_mhz : Noc_util.Units.frequency;  (** switch/link clock *)
  link_width_bits : int;                (** link word width *)
  slots : int;                          (** TDMA slot-table size *)
  slot_cycles : int;                    (** clock cycles per slot *)
  nis_per_switch : int;                 (** max cores attachable per switch *)
  constrain_ni_links : bool;            (** also budget the NI<->switch links *)
  max_mesh_dim : int;                   (** growth stops at this width/height *)
  routing : routing;
  topology : Mesh.kind;
      (** grid family used by the growth loop (mesh or torus) *)
  placement_hw_factor : float;
      (** fraction of a switch's aggregate link bandwidth that its
          cores' traffic may claim at placement time (bisection-style
          admission bound) *)
  placement_spread_factor : float;
      (** per-switch load may exceed the mesh-wide average load by at
          most this factor, forcing cores apart on larger meshes *)
}

val default : t
(** 500 MHz, 32-bit links, 32 slots of 4 cycles, 8 NIs per switch,
    unconstrained NI links, growth cap 20, min-cost routing. *)

val with_freq : t -> Noc_util.Units.frequency -> t
(** Same configuration at a different clock. *)

val link_capacity : t -> Noc_util.Units.bandwidth
(** Raw capacity of one link, MB/s. *)

val slot_bandwidth : t -> Noc_util.Units.bandwidth
(** Bandwidth granted by a single TDMA slot, MB/s. *)

val slot_duration_ns : t -> Noc_util.Units.latency
(** Wall-clock duration of one slot. *)

val slots_for_bandwidth : t -> Noc_util.Units.bandwidth -> int
(** Slots needed to carry the given bandwidth on one link; [0] for a
    zero bandwidth, at least [1] otherwise. *)

val validate : t -> (unit, string) result
(** Reject non-positive or non-finite frequencies, non-positive
    widths, slot counts, etc.  Also reject more than 1024 slots or a
    growth cap above 64: far above any design in use, low enough that
    a configuration read from untrusted input (a request, a design
    dump) cannot size slot tables or meshes beyond memory. *)

val pp : Format.formatter -> t -> unit
