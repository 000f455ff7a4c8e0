// Per-link wire gauges for socket-backed transports: byte/frame counts per
// direction plus the barrier crossings and their round-trip histogram,
// measured at each shard (microseconds from the flush of its kBatch frames
// to the last peer frame received — the cross-process analogue of the
// in-proc barrier stall). export_wire_stats() lays them into a
// MetricsRegistry under a caller prefix so bench harnesses and the EXP-26
// report read one vocabulary regardless of transport.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "stats/histogram.hpp"

namespace clb::obs {

struct WireStats {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t barriers = 0;  ///< allgather crossings, counted per shard
  /// Per crossing, µs from the shard's kBatch flush to the last peer frame.
  stats::IntHistogram barrier_rtt_us;

  void merge(const WireStats& o) {
    bytes_sent += o.bytes_sent;
    bytes_received += o.bytes_received;
    frames_sent += o.frames_sent;
    frames_received += o.frames_received;
    barriers += o.barriers;
    barrier_rtt_us.merge(o.barrier_rtt_us);
  }
};

/// Gauges written: <prefix>wire.bytes_sent, .bytes_received, .frames_sent,
/// .frames_received, .barriers, .barrier_rtt_mean_us, .barrier_rtt_p99_us.
inline void export_wire_stats(MetricsRegistry& m, const std::string& prefix,
                              const WireStats& s) {
  m.gauge(prefix + "wire.bytes_sent") = static_cast<double>(s.bytes_sent);
  m.gauge(prefix + "wire.bytes_received") =
      static_cast<double>(s.bytes_received);
  m.gauge(prefix + "wire.frames_sent") = static_cast<double>(s.frames_sent);
  m.gauge(prefix + "wire.frames_received") =
      static_cast<double>(s.frames_received);
  m.gauge(prefix + "wire.barriers") = static_cast<double>(s.barriers);
  m.gauge(prefix + "wire.barrier_rtt_mean_us") = s.barrier_rtt_us.mean();
  m.gauge(prefix + "wire.barrier_rtt_p99_us") =
      static_cast<double>(s.barrier_rtt_us.quantile(0.99));
}

}  // namespace clb::obs
