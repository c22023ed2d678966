open Hipec_sim
open Hipec_machine

let pp fmt k =
  let s = Kernel.stats k in
  let tbl = Kernel.frame_table k in
  let daemon = Kernel.pageout k in
  let disk = Kernel.disk k in
  let line name fmt' = Format.fprintf fmt ("  %-24s " ^^ fmt' ^^ "@,") name in
  Format.fprintf fmt "@[<v>kernel statistics at %a@," Sim_time.pp (Kernel.now k);
  line "frames" "%d total, %d free" (Frame.Table.total tbl) (Frame.Table.free_count tbl);
  line "tasks" "%d (%d alive)"
    (List.length (Kernel.tasks k))
    (List.length (List.filter Task.alive (Kernel.tasks k)));
  line "faults" "%d total (%d zero-fill, %d pagein, %d soft, %d hipec)" s.Kernel.faults
    s.Kernel.zero_fill_faults s.Kernel.pagein_faults s.Kernel.fast_refaults
    s.Kernel.hipec_faults;
  line "protection faults" "%d" s.Kernel.protection_faults;
  line "readahead" "%d pages prefetched" s.Kernel.prefetched_pages;
  line "copy-on-write" "%d copies, %d pushes" s.Kernel.cow_copies s.Kernel.cow_pushes;
  line "pageout daemon" "%d active, %d inactive, %d laundering"
    (Pageout.active_count daemon) (Pageout.inactive_count daemon)
    (Pageout.laundry_count daemon);
  line "daemon activity" "%d evictions, %d reactivations, %d writes"
    (Pageout.evictions daemon) (Pageout.reactivations daemon)
    (Pageout.pageout_writes daemon);
  line "disk" "%d queued reads, %d queued writes, %d sync transfers, %.1f s busy"
    (Disk.reads_completed disk) (Disk.writes_completed disk)
    (Disk.synchronous_transfers disk)
    (Sim_time.to_sec_f (Disk.busy_time disk));
  let io = Kernel.io_stats k in
  line "paging I/O" "%d errors, %d retries, %d giveups, %d swap remaps"
    io.Io_retry.io_errors io.Io_retry.io_retries io.Io_retry.io_giveups
    io.Io_retry.swap_remaps;
  line "fault injection" "%d transients, %d bad-block hits, %d latency spikes"
    (Disk.faults_injected disk) (Disk.bad_block_hits disk)
    (Disk.latency_spikes disk);
  (* only present when the overload controller is engaged, so runs that
     never enable it keep their historical output byte-for-byte *)
  (match Kernel.pressure k with
  | None -> ()
  | Some p ->
      line "pressure" "%s, %d changes" (Pressure.level_name (Pressure.level p))
        (Pressure.changes p));
  (* only present while a trace collector is installed, so untraced runs
     keep their historical output byte-for-byte *)
  (match Hipec_trace.Trace.active () with
  | None -> ()
  | Some c ->
      let module Tr = Hipec_trace.Trace in
      line "trace" "%d events, digest %s" (Tr.events_seen c)
        (Tr.digest_hex (Tr.digest c));
      let counts = Tr.counts_summary c in
      if counts <> "" then line "trace counts" "%s" counts);
  (* likewise: the metrics section only appears while a registry is
     installed *)
  (match Hipec_metrics.Metrics.active () with
  | None -> ()
  | Some reg ->
      List.iter
        (fun (name, value) -> line name "%s" value)
        (Hipec_metrics.Metrics.Registry.kstat_lines reg));
  Format.fprintf fmt "@]"

let to_string k = Format.asprintf "%a" pp k
