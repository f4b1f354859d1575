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
# below name runs exactly once, there. The clippy gate holds every
# workspace crate's library code to the no-unwrap/no-panic bar the fleetd
# supervisor model promises (test code is exempt: the gate is --lib only).
#
# The `repro` smokes drive each scenario through the binary at a fixed
# seed. `repro` prints one `check <name>: ok|FAILED: <detail>` line per
# self-check and exits 1 when a check, a run or a write failed, so every
# smoke gates on the exit status and on the `ok` lines of the checks it
# names (see repro_ok): a check that never ran fails the stage too. The
# root suites assert the same laws harder:
# - chaos: `tests/chaos.rs`, every conservation law at every severity;
# - daemon: `tests/daemon.rs` replays >=20 seeded kill points (including
#   torn WAL tails) with byte-identical recovery; the smoke re-runs one
#   seeded kill schedule. Its `--metrics-out` snapshot must hold one family
#   per instrumented subsystem; `tests/metrics.rs` asserts the stronger
#   contracts (byte-identical across thread counts, conservation laws);
# - rollout: the canary/rollback scenarios, rollback identity and
#   epoch-boundary kill recovery;
# - cluster: `tests/cluster.rs`, byte-identical merged output across
#   1/2/4 nodes and a >=12-point node-kill/process-kill sweep; the smoke
#   re-runs 4 nodes under a seeded kill schedule, with the
#   fleetd_cluster_* families in its snapshot;
# - ingest: `tests/ingest.rs`, severity-0 identity to the synthetic path,
#   conservation across the severity sweep, flood degradation, DNS
#   case-folding and parser totality; the smoke re-runs identity and a
#   seeded flood with the ingest_* families in its snapshot. A second run
#   at 1000 hosts holds the same checks at the scale where checkpoint cost
#   once grew quadratically (DESIGN.md §9) and where a fault-corrupted
#   datagram once decoded into a batch the daemon rejects;
# - controlplane: `tests/control.rs`, reject-and-keep-old reloads, the
#   command-journal crash classes, a >=10-point kill sweep and admin HTTP
#   totality; the smoke replays the operator script under kills with the
#   admin endpoint live over raw TCP, and its snapshot must hold the
#   control_* families and the journaled config_rejected event;
# - pipeline: `tests/pipeline.rs`, the cross-stage laws; the smoke drives
#   pcap → decode → sanitize → features → sweep and reports nonzero
#   end-to-end throughput;
# - megafleet: the sketch-backed fleet path at reduced scale, with its
#   hosts-CSV fingerprint, pooled sketch size and merge-order line pinned
#   and the tailstats_sketch_* families in its snapshot;
# - sketchablate: the sketch-vs-exact rank bound on a small corpus;
# - all: every experiment `all` runs, at default scale, with its CSVs.
#
# The last stages build the benchmark (hidsbench, its own manifest and
# lockfile) against the workspace crates it calls — fleetd's snapshot
# store and KillSwitch, the experiments daemon harness — run its unit
# tests, and smoke every workload once at reduced scale (`--test`).
set -eu
cd "$(dirname "$0")/.."

# repro_ok LOG "CHECK..." ARG...: run `repro ARG...` with its stderr in LOG;
# fail, showing LOG, unless it exits 0 and LOG holds `check CHECK: ok` for
# every CHECK.
repro_ok() {
    log="$1"
    checks="$2"
    shift 2
    rm -f "$log"
    if ! cargo run -q --release -p experiments --bin repro -- "$@" 2> "$log"; then
        echo "ci.sh: repro $* failed" >&2
        cat "$log" >&2
        exit 1
    fi
    for check in $checks; do
        grep -q "^check $check: ok" "$log" || {
            echo "ci.sh: repro $*: check $check did not pass" >&2
            cat "$log" >&2
            exit 1
        }
    done
}

# has_families SNAPSHOT NAME FAMILY...: fail unless the Prometheus text in
# SNAPSHOT declares every FAMILY.
has_families() {
    snapshot="$1"
    name="$2"
    shift 2
    for family in "$@"; do
        grep -q "^# TYPE $family " "$snapshot" || {
            echo "ci.sh: $name smoke missing family: $family" >&2
            exit 1
        }
    done
}

cargo build --release
cargo test -q --workspace
cargo clippy -q \
    -p netpkt -p flowtab -p tailstats -p synthgen -p hids-core \
    -p attacksim -p itconsole -p faultsim -p fleetd -p experiments -p bench \
    -p hids-metrics \
    --lib --no-deps -- -D clippy::unwrap_used -D clippy::panic
repro_ok target/ci-chaos.log chaos.invariants \
    --users 40 --weeks 2 --fault-seed 64273 --fault-rate 0.2 chaos
metrics_out="target/ci-metrics.prom"
rm -f "$metrics_out"
repro_ok target/ci-daemon.log "daemon.invariants daemon.kill_recovery" \
    --users 16 --weeks 2 --seed 42 --fault-seed 64273 --fault-rate 0.2 \
    --metrics-out "$metrics_out" daemon
repro_ok target/ci-rollout.log \
    "rollout.invariants rollout.rollback_identity rollout.kill_recovery" \
    --users 16 --weeks 2 --seed 42 --fault-seed 64273 --fault-rate 0.2 rollout
has_families "$metrics_out" metrics fleetd_batches_total \
    fleetd_snapshots_written_total itc_delivery_batches_total \
    hids_degraded_hosts hids_sweep_tables_total fleetd_harness_lifetimes_total
cluster_metrics="target/ci-cluster.prom"
rm -f "$cluster_metrics"
repro_ok target/ci-cluster.log \
    "cluster.invariants cluster.determinism cluster.kill_recovery" \
    --users 16 --weeks 2 --seed 42 --nodes 4 --kill-seed 64273 \
    --fault-seed 64273 --fault-rate 0.2 --metrics-out "$cluster_metrics" \
    cluster > /dev/null
has_families "$cluster_metrics" cluster fleetd_cluster_batches_total \
    fleetd_cluster_nodes fleetd_cluster_node_deaths_total \
    fleetd_cluster_handoffs_total fleetd_cluster_wire_frames_total \
    fleetd_cluster_harness_lifetimes_total
ingest_checks="ingest.identity ingest.invariants ingest.flood"
ingest_metrics="target/ci-ingest.prom"
rm -f "$ingest_metrics"
repro_ok target/ci-ingest.log "$ingest_checks" \
    --users 16 --weeks 2 --seed 42 --fault-seed 64273 --fault-severity 0.2 \
    --metrics-out "$ingest_metrics" ingest > /dev/null
has_families "$ingest_metrics" ingest ingest_datagrams_total \
    ingest_malformed_total ingest_sources ingest_dns_names_total
repro_ok target/ci-ingest-1000.log "$ingest_checks" \
    --users 1000 --weeks 2 ingest > /dev/null
control_metrics="target/ci-control.prom"
rm -f "$control_metrics"
control_checks="controlplane.script controlplane.determinism"
control_checks="$control_checks controlplane.kill_recovery controlplane.admin"
repro_ok target/ci-control.log "$control_checks" \
    --users 16 --weeks 2 --seed 42 --fault-seed 64273 --fault-rate 0.2 \
    --admin-port 18141 --metrics-out "$control_metrics" \
    controlplane > /dev/null
has_families "$control_metrics" controlplane control_config_generation \
    control_reloads_total control_commands_total control_drained_shards
grep -q "# event .* fleetd\.control config_rejected" "$control_metrics" || {
    echo "ci.sh: controlplane smoke missing config_rejected event" >&2
    exit 1
}
repro_ok target/ci-pipeline.log "pipeline.laws pipeline.throughput" \
    --seed 7 pipeline > /dev/null
cargo bench -p bench --bench pipeline -- --test
mega_metrics="target/ci-megafleet.prom"
mega_table="target/ci-megafleet.out"
rm -f "$mega_metrics" "$mega_table"
repro_ok target/ci-megafleet.log megafleet.invariants \
    --users 20000 --sketch-eps 0.01 --metrics-out "$mega_metrics" \
    megafleet > "$mega_table"
cat "$mega_table"
for pin in 'hosts csv fnv64 +a53961acf65ed9fa' 'fleet sketch bytes +6857565' \
    'merge-order check +ok'; do
    grep -Eq "^ *$pin\$" "$mega_table" || {
        echo "ci.sh: megafleet table lacks pinned line: $pin" >&2
        exit 1
    }
done
has_families "$mega_metrics" megafleet tailstats_sketch_bytes_total \
    tailstats_sketch_peak_host_bytes tailstats_sketch_compactions_total \
    tailstats_sketch_rank_error_ppm_max
repro_ok target/ci-sketchablate.log sketchablate.rank_bound \
    --users 40 --weeks 2 --sketch-eps 0.05 sketchablate > /dev/null
rm -rf target/ci-all
repro_ok target/ci-all.log "validate.calibration seeds.conclusions" \
    --out target/ci-all all > /dev/null
cargo bench -p bench -- --test
cargo test -q --manifest-path hidsbench/Cargo.toml
cargo run -q --release --offline --manifest-path hidsbench/Cargo.toml -- --test

echo "ci.sh: all gates passed"
