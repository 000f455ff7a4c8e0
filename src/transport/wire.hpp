// Payload serialisation for the cross-process transport: a bounds-checked
// little-endian Writer/Reader pair (on top of net::wire), a serialisable
// load-model spec (the coordinator distributes the spec, each process
// constructs its own identical model), and the protocol-message, task and
// parameter encodings.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/params.hpp"
#include "collision/collision.hpp"
#include "models/burst.hpp"
#include "net/wire.hpp"
#include "rt/message.hpp"
#include "sim/model.hpp"
#include "util/check.hpp"

namespace clb::transport {

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { net::wire::put_u32(buf_, v); }
  void u64(std::uint64_t v) { net::wire::put_u64(buf_, v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void seq_key(const net::SeqKey& k) { net::wire::put_seq_key(buf_, k); }
  void bytes(const std::uint8_t* p, std::size_t n) {
    buf_.insert(buf_.end(), p, p + n);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  /// Empties the buffer and keeps its capacity for the next payload.
  void clear() { buf_.clear(); }
  /// Direct mutable access, for test-only payload corruption hooks.
  [[nodiscard]] std::vector<std::uint8_t>& raw() { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Aborts on truncated input: the frame CRC already vouched for transport
/// integrity, so a short read here is a codec bug, not wire noise.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len)
      : data_(data), len_(len) {}
  explicit Reader(const std::vector<std::uint8_t>& v)
      : Reader(v.data(), v.size()) {}

  std::uint8_t u8() { return data_[need(1)]; }
  std::uint32_t u32() { return net::wire::get_u32(data_ + need(4)); }
  std::uint64_t u64() { return net::wire::get_u64(data_ + need(8)); }
  double f64() { return std::bit_cast<double>(u64()); }
  net::SeqKey seq_key() {
    return net::wire::get_seq_key(data_ + need(net::wire::kSeqKeyWireSize));
  }

  [[nodiscard]] bool exhausted() const { return pos_ == len_; }
  [[nodiscard]] std::size_t remaining() const { return len_ - pos_; }

 private:
  std::size_t need(std::size_t n) {
    CLB_CHECK(pos_ + n <= len_, "wire payload truncated");
    const std::size_t at = pos_;
    pos_ += n;
    return at;
  }

  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

/// Serialisable load-model description. Only the parallel-safe counter-RNG
/// models the runtime accepts are representable; each process constructs
/// its model from the spec, so model state never crosses the wire.
struct ModelSpec {
  enum class Kind : std::uint8_t { kSingle = 1, kBurst = 2 };

  Kind kind = Kind::kSingle;
  double p = 0.45;    // Single
  double eps = 0.1;   // Single
  models::BurstConfig burst{};

  [[nodiscard]] static ModelSpec single(double p, double eps) {
    ModelSpec s;
    s.kind = Kind::kSingle;
    s.p = p;
    s.eps = eps;
    return s;
  }

  [[nodiscard]] static ModelSpec bursty(const models::BurstConfig& bc) {
    ModelSpec s;
    s.kind = Kind::kBurst;
    s.burst = bc;
    return s;
  }

  [[nodiscard]] std::unique_ptr<sim::LoadModel> make(std::uint64_t n) const;

  void serialize(Writer& w) const;
  [[nodiscard]] static ModelSpec deserialize(Reader& r);
};

/// One rt::Message on the wire: kind, key, a/b/c, then the tasks it
/// carries (a u32 count and the tasks). The fabric SeqKey rides along so
/// the codec is complete for latency-fabric vocabularies even though the
/// instant schedule leaves it zero; the latency-mode endpoints do not.
void serialize_msg(Writer& w, const rt::Message& m,
                   std::span<const rt::RtTask> tasks);
/// Decodes one message; its tasks replace the contents of `tasks` (and
/// set its task_count).
[[nodiscard]] rt::Message deserialize_msg(Reader& r,
                                          std::vector<rt::RtTask>& tasks);

void serialize_task(Writer& w, const rt::RtTask& t);
[[nodiscard]] rt::RtTask deserialize_task(Reader& r);

void serialize_params(Writer& w, const core::PhaseParams& p);
[[nodiscard]] core::PhaseParams deserialize_params(Reader& r);

void serialize_game(Writer& w, const collision::CollisionConfig& g);
[[nodiscard]] collision::CollisionConfig deserialize_game(Reader& r);

}  // namespace clb::transport
