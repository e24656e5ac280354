// The long-running LTC service binary. Three modes (DESIGN.md §8, §11):
//
//   Replay: an ltc-events v1 log (or a synthetic Poisson arrival stream)
//   through svc::ShardedStreamEngine, emitting a deterministic assignment log.
//     ./build/examples/ltc_serve --synthetic --tasks=500 --workers=20000
//         --algo=LAF --deadline=0.5
//         --out=assignments.log --metrics_json=metrics.json
//
//   Durable replay: the same sources plus --state_dir route every event
//   through a WAL with periodic snapshots; a restarted run recovers and
//   emits the same log byte-for-byte.
//     ./build/examples/ltc_serve --events=traffic.events --algo=AAM
//         --state_dir=/var/ltc/state --snapshot_every=5000
//
//   Socket server: --listen accepts ltc-wire v1 ingest connections and
//   feeds them into the durable service; SIGINT/SIGTERM drain gracefully
//   (exit 0), runtime failures abort with exit 2 and leave the state dir
//   recoverable.
//     ./build/examples/ltc_serve --listen=unix:/tmp/ltc.sock
//         --state_dir=/var/ltc/state --algo=LAF --deadline=0.5
//
// The assignment log is pinned per configuration and byte-identical across
// crash/restart boundaries; metrics (events/sec, latency percentiles,
// ingest admission counters) go to stdout and --metrics_json.

#include "net/serve_adapter.h"
#include "svc/serve_main.h"

int main(int argc, char** argv) {
  return ltc::svc::ServeMain(argc, argv, ltc::net::SocketServeAdapter());
}
