(** RAID-0: block-interleaved striping across N child devices.

    Global block [a] lives on child [a mod n] at child block [a / n], so
    a large contiguous transfer — an LFS segment write — splits into one
    contiguous transfer per child and the modelled bandwidth scales with
    the spindle count (the paper's bandwidth-limited regime, Section 1;
    cf. Dagenais's RAID striping study).

    [stats] returns the children's {!Io_stats} aggregated with
    {!Io_stats.merge}; busy time is therefore the *sum* of per-spindle
    busy times, while the modelled elapsed time of a balanced workload is
    the per-child maximum (query the children directly for that).

    Crash plumbing: the stripe keeps no crash state of its own.  Arm a
    power cut on a child device (or on a {!Vdev_fault} over one); the
    child raises {!Vdev.Crashed} through the stripe.  [plan_crash] on
    the stripe raises [Invalid_argument], [is_crashed] reports whether
    any child crashed, and [reboot] reboots every child. *)

val create : ?name:string -> Vdev.t array -> Vdev.t
(** [create children] stripes over the children, which must be non-empty
    and share a block size.  Capacity is [n * min child nblocks];
    trailing blocks of larger children are unused. *)
