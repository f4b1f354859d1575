#!/usr/bin/env sh
# Tier-1 verification gate (referenced from ROADMAP.md).
#
# Builds the workspace, runs every workspace package's tests (`--workspace`:
# the root manifest is itself a package, so a bare `cargo test` would run
# only the root package's suites and skip every crate's unit tests and
# `crates/fleetd/tests/golden.rs`), then smoke-runs every criterion bench
# routine once (`-- --test` executes each benchmark body without timing it,
# catching bit-rot in the bench harnesses). The workspace pass includes the
# root package's own suites (`tests/*.rs`), so each root suite the stages
# below name runs exactly once, there.
#
# The fault-injection smoke stage runs the chaos experiment at a fixed
# seed and severity; `repro` prints a warning on any conservation-law
# violation (which we grep for, as for every `repro` smoke below: see
# check_log), and the root `tests/chaos.rs` suite (run by the workspace
# test pass) asserts the same laws hard. The clippy gate holds every
# workspace crate's library code to the no-unwrap/no-panic bar the fleetd
# supervisor model promises (test code is exempt: the gate is --lib only).
#
# The daemon stages are the crash-safety gate: the root `tests/daemon.rs`
# suite replays >=20 seeded kill points (including torn WAL tails) and
# asserts byte-identical recovery, and the `repro daemon` smoke re-runs
# the scenario under a seeded kill schedule at a fixed seed, requiring its
# kill-recovery self-check line. The rollout smoke drives the
# threshold-lifecycle (canary/rollback) scenarios the same way, requiring
# the rollback-identity and epoch-boundary kill-recovery self-check lines.
#
# The cluster stages are the distribution gate: the root `tests/cluster.rs`
# suite asserts byte-identical merged output across 1/2/4 nodes and a
# >=12-point node-kill/process-kill sweep, and the `repro cluster` smoke
# re-runs the 4-node scenario under a seeded kill schedule, printing a
# warning on any determinism or kill-recovery self-check failure (which
# we grep for), with the fleetd_cluster_* metric families asserted
# present in the exported snapshot.
#
# The `repro daemon` smoke also writes a deterministic Prometheus
# snapshot via `--metrics-out`, and the metrics stage greps it for one
# metric family per instrumented subsystem; the root `tests/metrics.rs` suite (run by the workspace test
# pass) asserts the stronger contracts (byte-identical across thread
# counts, conservation laws).
#
# The ingest stages are the wire-hardening gate: the root `tests/ingest.rs`
# suite asserts severity-0 byte-identity to the synthetic path across
# thread counts, zero-panic conservation across the severity sweep, flood
# degradation, DNS case-folding, and parser totality (pinned hostile
# corpus + property suites). The `repro ingest` smoke re-runs the
# identity self-check and a seeded flood at a fixed severity, with the
# ingest_* metric families asserted present in the exported snapshot. A
# second `repro ingest` run at 1000 hosts holds the same self-checks at the
# scale where checkpoint cost used to grow quadratically with the fleet
# (fleetd now checkpoints on log volume, DESIGN.md §9) and where a
# fault-corrupted datagram once decoded into a batch the daemon rejects.
#
# The control-plane stages are the operator-surface gate: the root
# `tests/control.rs` suite asserts reject-and-keep-old reloads, the two
# command-journal crash classes, a >=10-point seeded kill sweep with
# byte-identical recovery, and totality of the admin HTTP core under
# hostile/property-generated requests. The `repro controlplane` smoke
# replays the scripted operator timeline under a seeded kill schedule
# with the admin endpoint live, exercising reload + invalid reload +
# pin-threshold over raw TCP; we grep the control_* metric families, the
# journaled config_rejected event, and every self-check line.
#
# The pipeline stages are the end-to-end gate: the root `tests/pipeline.rs`
# suite asserts the cross-stage laws (loss-free clean capture, packet-path
# feature identity, exact sanitize→decode wire round trip, the paper's
# grouping ordering, exact replay), and the `repro pipeline` smoke drives
# pcap → decode → sanitize → features → sweep at a fixed seed, printing
# each self-check line (which we grep for) and the end-to-end throughput
# figure on its `pipeline throughput:` line (asserted nonzero).
#
# The megafleet smoke runs the sketch-backed fleet path at reduced scale
# with its health gauges exported, asserting the tailstats_sketch_*
# families exist and that the run's internal merge-order / rank-budget
# self-checks pass (a violated invariant prints a warning we grep for).
# It also pins its table's hosts-CSV fingerprint, the pooled fleet
# sketch's size and the merge-order line, so any byte drift in the
# sketch fails here.
# The sketchablate smoke verifies the sketch-vs-exact rank error bound on
# a small corpus the same way.
#
# The last stages build the benchmark (hidsbench, its own manifest and
# lockfile) against the workspace crates it calls — fleetd's snapshot
# store and KillSwitch, the experiments daemon harness — run its unit
# tests, and smoke every workload once at reduced scale (`--test`).
set -eu
cd "$(dirname "$0")/.."

# check_log LOG NAME [LINE...]: fail unless the `repro` stderr in LOG holds
# every LINE (a grep pattern) and no "FAILED" or "invariant violated"
# warning; `repro` exits 0 either way.
check_log() {
    log="$1"
    name="$2"
    shift 2
    for line in "$@"; do
        grep -q "$line" "$log" || {
            echo "ci.sh: $name self-check missing: $line" >&2
            cat "$log" >&2
            exit 1
        }
    done
    if grep -q "FAILED\|invariant violated" "$log"; then
        echo "ci.sh: $name self-check failed" >&2
        cat "$log" >&2
        exit 1
    fi
}

cargo build --release
cargo test -q --workspace
cargo clippy -q \
    -p netpkt -p flowtab -p tailstats -p synthgen -p hids-core \
    -p attacksim -p itconsole -p faultsim -p fleetd -p experiments -p bench \
    -p hids-metrics \
    --lib --no-deps -- -D clippy::unwrap_used -D clippy::panic
chaos_log="target/ci-chaos.log"
daemon_log="target/ci-daemon.log"
rollout_log="target/ci-rollout.log"
metrics_out="target/ci-metrics.prom"
rm -f "$chaos_log" "$daemon_log" "$rollout_log" "$metrics_out"
cargo run -q --release -p experiments --bin repro -- \
    --users 40 --weeks 2 --fault-seed 64273 --fault-rate 0.2 chaos \
    2> "$chaos_log"
check_log "$chaos_log" chaos
cargo run -q --release -p experiments --bin repro -- \
    --users 16 --weeks 2 --seed 42 --fault-seed 64273 --fault-rate 0.2 \
    --metrics-out "$metrics_out" daemon 2> "$daemon_log"
check_log "$daemon_log" daemon "daemon kill-recovery check:"
cargo run -q --release -p experiments --bin repro -- \
    --users 16 --weeks 2 --seed 42 --fault-seed 64273 --fault-rate 0.2 rollout \
    2> "$rollout_log"
check_log "$rollout_log" rollout \
    "rollout rollback-identity check: hosts CSV identical" \
    "rollout kill-recovery check:"
for family in fleetd_batches_total fleetd_snapshots_written_total \
    itc_delivery_batches_total hids_degraded_hosts hids_sweep_tables_total \
    fleetd_harness_lifetimes_total; do
    grep -q "^# TYPE $family " "$metrics_out" || {
        echo "ci.sh: metrics smoke missing family: $family" >&2
        exit 1
    }
done
cluster_metrics="target/ci-cluster.prom"
cluster_log="target/ci-cluster.log"
rm -f "$cluster_metrics" "$cluster_log"
cargo run -q --release -p experiments --bin repro -- \
    --users 16 --weeks 2 --seed 42 --nodes 4 --kill-seed 64273 \
    --fault-seed 64273 --fault-rate 0.2 --metrics-out "$cluster_metrics" \
    cluster 2> "$cluster_log" > /dev/null
for family in fleetd_cluster_batches_total fleetd_cluster_nodes \
    fleetd_cluster_node_deaths_total fleetd_cluster_handoffs_total \
    fleetd_cluster_wire_frames_total fleetd_cluster_harness_lifetimes_total; do
    grep -q "^# TYPE $family " "$cluster_metrics" || {
        echo "ci.sh: cluster smoke missing family: $family" >&2
        exit 1
    }
done
check_log "$cluster_log" cluster "cluster determinism check (4 nodes vs 1)" \
    "cluster kill-recovery check:"
ingest_metrics="target/ci-ingest.prom"
ingest_log="target/ci-ingest.log"
rm -f "$ingest_metrics" "$ingest_log"
cargo run -q --release -p experiments --bin repro -- \
    --users 16 --weeks 2 --seed 42 --fault-seed 64273 --fault-severity 0.2 \
    --metrics-out "$ingest_metrics" ingest 2> "$ingest_log" > /dev/null
for family in ingest_datagrams_total ingest_malformed_total \
    ingest_sources ingest_dns_names_total; do
    grep -q "^# TYPE $family " "$ingest_metrics" || {
        echo "ci.sh: ingest smoke missing family: $family" >&2
        exit 1
    }
done
check_log "$ingest_log" ingest \
    "ingest identity check: severity-0 hosts CSV identical" "ingest flood check:"
ingest_scale_log="target/ci-ingest-1000.log"
rm -f "$ingest_scale_log"
cargo run -q --release -p experiments --bin repro -- \
    --users 1000 --weeks 2 ingest 2> "$ingest_scale_log" > /dev/null
check_log "$ingest_scale_log" "ingest (1000 hosts)" \
    "ingest identity check: severity-0 hosts CSV identical" "ingest flood check:"
control_metrics="target/ci-control.prom"
control_log="target/ci-control.log"
rm -f "$control_metrics" "$control_log"
cargo run -q --release -p experiments --bin repro -- \
    --users 16 --weeks 2 --seed 42 --fault-seed 64273 --fault-rate 0.2 \
    --admin-port 18141 --metrics-out "$control_metrics" \
    controlplane 2> "$control_log" > /dev/null
for family in control_config_generation control_reloads_total \
    control_commands_total control_drained_shards; do
    grep -q "^# TYPE $family " "$control_metrics" || {
        echo "ci.sh: controlplane smoke missing family: $family" >&2
        exit 1
    }
done
grep -q "# event .* fleetd\.control config_rejected" "$control_metrics" || {
    echo "ci.sh: controlplane smoke missing config_rejected event" >&2
    exit 1
}
check_log "$control_log" controlplane "controlplane script check:" \
    "controlplane determinism check: hosts CSV identical" \
    "controlplane kill-recovery check:" \
    "controlplane admin check: reload applied at generation 2"
pipeline_log="target/ci-pipeline.log"
rm -f "$pipeline_log"
cargo run -q --release -p experiments --bin repro -- \
    --seed 7 pipeline 2> "$pipeline_log" > /dev/null
check_log "$pipeline_log" pipeline "pipeline capture check: clean pcap loss-free" \
    "pipeline feature check: packet-path features identical" \
    "pipeline wire check:" "pipeline throughput:"
grep -Eq 'pipeline throughput: [1-9][0-9]* window-events/sec' "$pipeline_log" || {
    echo "ci.sh: pipeline throughput line missing nonzero events/sec" >&2
    cat "$pipeline_log" >&2
    exit 1
}
cargo bench -p bench --bench pipeline -- --test
mega_metrics="target/ci-megafleet.prom"
mega_log="target/ci-megafleet.log"
mega_table="target/ci-megafleet.out"
rm -f "$mega_metrics" "$mega_log" "$mega_table"
cargo run -q --release -p experiments --bin repro -- \
    --users 20000 --sketch-eps 0.01 --metrics-out "$mega_metrics" \
    megafleet > "$mega_table" 2> "$mega_log"
cat "$mega_table"
for pin in 'hosts csv fnv64 +a53961acf65ed9fa' 'fleet sketch bytes +6857565' \
    'merge-order check +ok'; do
    grep -Eq "^ *$pin\$" "$mega_table" || {
        echo "ci.sh: megafleet table lacks pinned line: $pin" >&2
        exit 1
    }
done
for family in tailstats_sketch_bytes_total tailstats_sketch_peak_host_bytes \
    tailstats_sketch_compactions_total tailstats_sketch_rank_error_ppm_max; do
    grep -q "^# TYPE $family " "$mega_metrics" || {
        echo "ci.sh: megafleet smoke missing family: $family" >&2
        exit 1
    }
done
check_log "$mega_log" megafleet
ablate_log="target/ci-sketchablate.log"
rm -f "$ablate_log"
cargo run -q --release -p experiments --bin repro -- \
    --users 40 --weeks 2 --sketch-eps 0.05 sketchablate 2> "$ablate_log" \
    > /dev/null
grep -q "sketchablate self-check: worst rank deviation" "$ablate_log" || {
    echo "ci.sh: sketchablate rank bound violated" >&2
    cat "$ablate_log" >&2
    exit 1
}
cargo bench -p bench -- --test
cargo test -q --manifest-path hidsbench/Cargo.toml
cargo run -q --release --offline --manifest-path hidsbench/Cargo.toml -- --test

echo "ci.sh: all gates passed"
