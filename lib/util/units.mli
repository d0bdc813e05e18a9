(** Physical units used throughout the NoC design flow.

    The paper works in MB/s (bandwidth), MHz (frequency), ns (latency),
    bits (link width) and mm² (area).  Keeping explicit conversion
    helpers in one module avoids the classic factor-of-8 and
    factor-of-1000 mistakes. *)

type bandwidth = float
(** Megabytes per second. *)

type frequency = float
(** Megahertz. *)

type latency = float
(** Nanoseconds. *)

type area = float
(** Square millimetres. *)

val link_capacity : freq_mhz:frequency -> width_bits:int -> bandwidth
(** [link_capacity ~freq_mhz ~width_bits] is the raw capacity of a link
    that moves one [width_bits]-bit word per cycle, in MB/s.
    500 MHz x 32 bit = 2000 MB/s (the paper's §6.2 operating point). *)

val cycle_ns : frequency -> latency
(** Duration of one clock cycle in ns. *)

val mbps_per_slot : capacity:bandwidth -> slots:int -> bandwidth
(** Bandwidth granted by one TDMA slot out of [slots]. *)

val slots_needed : bw:bandwidth -> capacity:bandwidth -> slots:int -> int
(** Number of TDMA slots needed to carry [bw] on a link of [capacity]
    divided into [slots] slots; at least 1 for a non-zero [bw].
    Saturates at [max_int] for a demand too large (or NaN) to count. *)

val pp_bandwidth : Format.formatter -> bandwidth -> unit
val pp_frequency : Format.formatter -> frequency -> unit
val pp_latency : Format.formatter -> latency -> unit
val pp_area : Format.formatter -> area -> unit
