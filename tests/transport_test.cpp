// Unit tests for the cross-process transport's wire layer: the length-
// prefixed frame codec (truncation, CRC, magic, version, sequence
// violations), the payload Writer/Reader codecs, and a live Endpoint pair
// ping over both socket kinds. The end-to-end lockstep runs live in
// transport_equivalence_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "net/wire.hpp"
#include "transport/endpoint.hpp"
#include "transport/frame.hpp"
#include "transport/shard_engine.hpp"
#include "transport/wire.hpp"

namespace {

using namespace clb;
using namespace clb::transport;

std::vector<std::uint8_t> bytes(std::initializer_list<int> v) {
  std::vector<std::uint8_t> out;
  for (int x : v) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

// ---------------------------------------------------------------------------
// net::wire primitives
// ---------------------------------------------------------------------------

TEST(NetWire, PutGetRoundTrip) {
  std::vector<std::uint8_t> buf;
  net::wire::put_u16(buf, 0xBEEF);
  net::wire::put_u32(buf, 0xDEADBEEFu);
  net::wire::put_u64(buf, 0x0123456789ABCDEFull);
  ASSERT_EQ(buf.size(), 14u);
  EXPECT_EQ(net::wire::get_u16(buf.data()), 0xBEEF);
  EXPECT_EQ(net::wire::get_u32(buf.data() + 2), 0xDEADBEEFu);
  EXPECT_EQ(net::wire::get_u64(buf.data() + 6), 0x0123456789ABCDEFull);
  // Little-endian on the wire, byte for byte.
  EXPECT_EQ(buf[0], 0xEF);
  EXPECT_EQ(buf[1], 0xBE);
}

TEST(NetWire, Crc32KnownVectorAndChaining) {
  // The canonical CRC-32 ("check" vector): crc32("123456789") = 0xCBF43926.
  const char* s = "123456789";
  const auto* p = reinterpret_cast<const std::uint8_t*>(s);
  EXPECT_EQ(net::wire::crc32(p, 9), 0xCBF43926u);
  // Chaining must equal one-shot.
  const std::uint32_t part = net::wire::crc32(p, 4);
  EXPECT_EQ(net::wire::crc32(p + 4, 5, part), 0xCBF43926u);
}

TEST(NetWire, SeqKeyRoundTrip) {
  net::SeqKey k;
  k.send_step = 0xAABBCCDDEEFF0011ull;
  k.stage = net::SendStage::kDeliver;
  k.major = 42;
  k.minor = 7;
  std::vector<std::uint8_t> buf;
  net::wire::put_seq_key(buf, k);
  ASSERT_EQ(buf.size(), net::wire::kSeqKeyWireSize);
  const net::SeqKey back = net::wire::get_seq_key(buf.data());
  EXPECT_EQ(back.send_step, k.send_step);
  EXPECT_EQ(back.stage, k.stage);
  EXPECT_EQ(back.major, k.major);
  EXPECT_EQ(back.minor, k.minor);
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

TEST(FrameCodec, EncodeDecodeRoundTrip) {
  const std::vector<std::uint8_t> payload = bytes({1, 2, 3, 4, 5});
  const auto wire = encode_frame(FrameType::kBatch, 1, payload);
  ASSERT_EQ(wire.size(), kFrameHeaderSize + payload.size());
  const DecodeResult r = decode_frame(wire.data(), wire.size());
  ASSERT_EQ(r.status, DecodeStatus::kOk);
  EXPECT_EQ(r.consumed, wire.size());
  EXPECT_EQ(r.frame.type, FrameType::kBatch);
  EXPECT_EQ(r.frame.seq, 1u);
  EXPECT_EQ(r.frame.payload, payload);
}

TEST(FrameCodec, EmptyPayload) {
  const auto wire = encode_frame(FrameType::kDone, 9, nullptr, 0);
  const DecodeResult r = decode_frame(wire.data(), wire.size());
  ASSERT_EQ(r.status, DecodeStatus::kOk);
  EXPECT_TRUE(r.frame.payload.empty());
  EXPECT_EQ(r.frame.seq, 9u);
}

TEST(FrameCodec, TruncatedFrameNeedsMore) {
  const auto wire = encode_frame(FrameType::kState, 1, bytes({7, 8, 9}));
  // Every strict prefix is incomplete, not an error.
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const DecodeResult r = decode_frame(wire.data(), cut);
    EXPECT_EQ(r.status, DecodeStatus::kNeedMore) << "cut=" << cut;
  }
}

TEST(FrameCodec, BadMagicConvicted) {
  auto wire = encode_frame(FrameType::kRun, 1, bytes({1}));
  wire[0] ^= 0xFF;
  EXPECT_EQ(decode_frame(wire.data(), wire.size()).status,
            DecodeStatus::kBadMagic);
}

TEST(FrameCodec, BadVersionConvicted) {
  auto wire = encode_frame(FrameType::kRun, 1, bytes({1}));
  wire[4] = kWireVersion + 1;
  EXPECT_EQ(decode_frame(wire.data(), wire.size()).status,
            DecodeStatus::kBadVersion);
}

TEST(FrameCodec, CorruptPayloadFailsCrc) {
  auto wire = encode_frame(FrameType::kBatch, 3, bytes({10, 20, 30, 40}));
  wire[kFrameHeaderSize + 2] ^= 0x01;  // flip one payload bit
  EXPECT_EQ(decode_frame(wire.data(), wire.size()).status,
            DecodeStatus::kBadCrc);
}

TEST(FrameCodec, CorruptHeaderFailsCrc) {
  auto wire = encode_frame(FrameType::kBatch, 3, bytes({10, 20}));
  wire[8] ^= 0x01;  // flip a seq bit: header is covered by the CRC too
  EXPECT_EQ(decode_frame(wire.data(), wire.size()).status,
            DecodeStatus::kBadCrc);
}

TEST(FrameCodec, OversizedLengthConvicted) {
  auto wire = encode_frame(FrameType::kBatch, 1, bytes({1}));
  // Forge a giant length field; must be rejected before any allocation.
  const std::uint32_t huge = kMaxFramePayload + 1;
  wire[16] = static_cast<std::uint8_t>(huge);
  wire[17] = static_cast<std::uint8_t>(huge >> 8);
  wire[18] = static_cast<std::uint8_t>(huge >> 16);
  wire[19] = static_cast<std::uint8_t>(huge >> 24);
  EXPECT_EQ(decode_frame(wire.data(), wire.size()).status,
            DecodeStatus::kTooLong);
}

TEST(FrameReaderTest, ReassemblesSplitFeeds) {
  FrameReader reader;
  const auto w1 = encode_frame(FrameType::kBatch, 1, bytes({1, 2}));
  const auto w2 = encode_frame(FrameType::kRunEnd, 2, bytes({3, 4, 5}));
  std::vector<std::uint8_t> stream = w1;
  stream.insert(stream.end(), w2.begin(), w2.end());

  Frame f;
  // Drip-feed one byte at a time; frames must pop out exactly at the seams.
  std::size_t got = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    reader.feed(&stream[i], 1);
    while (reader.next(f) == DecodeStatus::kOk) {
      ++got;
      if (got == 1) {
        EXPECT_EQ(f.type, FrameType::kBatch);
        EXPECT_EQ(f.payload, bytes({1, 2}));
      } else {
        EXPECT_EQ(f.type, FrameType::kRunEnd);
        EXPECT_EQ(f.payload, bytes({3, 4, 5}));
      }
    }
  }
  EXPECT_EQ(got, 2u);
  EXPECT_EQ(reader.frames_decoded(), 2u);
}

TEST(FrameReaderTest, DuplicateSequenceConvicted) {
  FrameReader reader;
  const auto w1 = encode_frame(FrameType::kBatch, 1, bytes({1}));
  reader.feed(w1.data(), w1.size());
  Frame f;
  ASSERT_EQ(reader.next(f), DecodeStatus::kOk);
  // Replay the same frame: seq 1 again is a duplicate, a poisoned stream.
  reader.feed(w1.data(), w1.size());
  EXPECT_EQ(reader.next(f), kDupSeq);
  EXPECT_NE(reader.error().find("duplicate"), std::string::npos)
      << reader.error();
  // Poisoned: further reads stay failed.
  EXPECT_NE(reader.next(f), DecodeStatus::kOk);
}

TEST(FrameReaderTest, SequenceGapConvicted) {
  FrameReader reader;
  const auto w1 = encode_frame(FrameType::kBatch, 1, bytes({1}));
  const auto w3 = encode_frame(FrameType::kBatch, 3, bytes({3}));
  reader.feed(w1.data(), w1.size());
  Frame f;
  ASSERT_EQ(reader.next(f), DecodeStatus::kOk);
  reader.feed(w3.data(), w3.size());  // seq 2 went missing
  EXPECT_EQ(reader.next(f), kGapSeq);
  EXPECT_NE(reader.error().find("gap"), std::string::npos) << reader.error();
}

TEST(FrameReaderTest, FirstFrameMustBeSeqOne) {
  FrameReader reader;
  const auto w2 = encode_frame(FrameType::kBatch, 2, bytes({1}));
  reader.feed(w2.data(), w2.size());
  Frame f;
  EXPECT_EQ(reader.next(f), kGapSeq);
}

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------

TEST(PayloadCodec, MsgRoundTrip) {
  // A kTransfer and the tasks it carries, then a task-free message: the
  // decoder hands back values and replaces the task vector per message.
  rt::Message m;
  m.kind = rt::MsgKind::kTransfer;
  m.key = 0x1234567890ABCDEFull;
  m.a = 17;
  m.b = 91;
  m.c = 3;
  m.seq = net::SeqKey{7, net::SendStage::kEvaluate, 0xABCDull << 32, 5};
  const std::vector<rt::RtTask> tasks = {rt::RtTask{sim::Task{12, 17, 1}, 400},
                                         rt::RtTask{sim::Task{13, 18, 2}, 500}};
  rt::Message query;
  query.kind = rt::MsgKind::kQuery;
  query.key = 42;
  query.a = 5;

  Writer w;
  serialize_msg(w, m, tasks);
  serialize_msg(w, query, {});
  Reader r(w.data());
  std::vector<rt::RtTask> got;
  const rt::Message back = deserialize_msg(r, got);
  EXPECT_EQ(back.kind, m.kind);
  EXPECT_EQ(back.key, m.key);
  EXPECT_EQ(back.a, m.a);
  EXPECT_EQ(back.b, m.b);
  EXPECT_EQ(back.c, m.c);
  EXPECT_EQ(back.seq, m.seq);
  EXPECT_EQ(back.task_count, 2u);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].task.birth_step, 12u);
  EXPECT_EQ(got[0].task.origin, 17u);
  EXPECT_EQ(got[0].birth_us, 400u);
  EXPECT_EQ(got[1].task.weight, 2u);
  EXPECT_EQ(got[1].birth_us, 500u);

  const rt::Message back_query = deserialize_msg(r, got);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back_query.kind, rt::MsgKind::kQuery);
  EXPECT_EQ(back_query.key, 42u);
  EXPECT_EQ(back_query.a, 5u);
  EXPECT_EQ(back_query.task_count, 0u);
  EXPECT_TRUE(got.empty());
}

TEST(PayloadCodec, ShardRunConfigRoundTrip) {
  ShardRunConfig c;
  c.n = 192;
  c.seed = 3;
  c.workers = 4;
  c.index = 2;
  c.deterministic = true;
  c.policy = rt::RtPolicy::kThreshold;
  core::Fractions f;
  f.t_min = 64;
  c.params = core::PhaseParams::from_n(192, f);
  c.game.max_rounds = 9;
  c.spin_work = 5;
  c.track_sojourn = true;
  c.corrupt_transfer_frame = 7;
  c.extra_crossing_step = 12;
  models::BurstConfig bc;
  bc.period = 16;
  bc.burst_rate = 6;
  c.model = ModelSpec::bursty(bc);

  Writer w;
  c.serialize(w);
  Reader r(w.data());
  const ShardRunConfig back = ShardRunConfig::deserialize(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.n, c.n);
  EXPECT_EQ(back.seed, c.seed);
  EXPECT_EQ(back.workers, c.workers);
  EXPECT_EQ(back.index, c.index);
  EXPECT_EQ(back.policy, c.policy);
  EXPECT_EQ(back.params.T, c.params.T);
  EXPECT_EQ(back.params.phase_len, c.params.phase_len);
  EXPECT_EQ(back.params.heavy_threshold, c.params.heavy_threshold);
  EXPECT_EQ(back.game.a, c.game.a);
  EXPECT_EQ(back.game.max_rounds, c.game.max_rounds);
  EXPECT_EQ(back.spin_work, c.spin_work);
  EXPECT_EQ(back.track_sojourn, c.track_sojourn);
  EXPECT_EQ(back.corrupt_transfer_frame, c.corrupt_transfer_frame);
  EXPECT_EQ(back.extra_crossing_step, c.extra_crossing_step);
  EXPECT_EQ(back.model.kind, ModelSpec::Kind::kBurst);
  EXPECT_EQ(back.model.burst.period, 16u);
  EXPECT_EQ(back.model.burst.burst_rate, 6u);
}

TEST(PayloadCodec, ShardStateRoundTrip) {
  ShardState s;
  s.begin = 10;
  s.end = 12;
  s.procs.resize(2);
  s.procs[0].queue.push_back(rt::RtTask{sim::Task{1, 10, 1}, 0}, *s.arena);
  s.procs[0].generated = 5;
  s.procs[1].consumed = 3;
  s.procs[1].tasks_received = 2;
  s.msg.queries = 11;
  s.msg.tasks_moved = 4;
  s.clamped = 1;
  s.deposited = 2;
  s.ledger.push_back(rt::LedgerEntry{8, 10, 11, 4});
  s.sojourn_steps.add(3, 2);
  s.sojourn_steps.add(900, 1);  // sparse far tail
  s.epoch_ticks = 123456789012;
  s.running_max = 77;
  rt::RtPhaseSummary ps;
  ps.phase_index = 1;
  ps.matched = 2;
  ps.heavy_procs = {10, 11};
  ps.completed = true;
  s.phases.push_back(ps);
  s.data_wire.bytes_sent = 123;
  s.data_wire.barriers = 9;
  s.data_wire.barrier_rtt_us.add(15, 3);
  s.control_wire.frames_sent = 5;

  Writer w;
  s.serialize(w);
  Reader r(w.data());
  const ShardState back = ShardState::deserialize(r);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.begin, 10u);
  ASSERT_EQ(back.procs.size(), 2u);
  ASSERT_EQ(back.procs[0].queue.size(), 1u);
  EXPECT_EQ(back.procs[0].queue[0].task.origin, 10u);
  EXPECT_EQ(back.procs[0].generated, 5u);
  EXPECT_EQ(back.procs[1].consumed, 3u);
  EXPECT_EQ(back.msg.queries, 11u);
  EXPECT_EQ(back.clamped, 1u);
  EXPECT_EQ(back.deposited, 2u);
  ASSERT_EQ(back.ledger.size(), 1u);
  EXPECT_EQ(back.ledger[0].count, 4u);
  EXPECT_EQ(back.sojourn_steps.total(), 3u);
  EXPECT_EQ(back.sojourn_steps.count_at(900), 1u);
  EXPECT_EQ(back.epoch_ticks, 123456789012);
  EXPECT_EQ(back.running_max, 77u);
  ASSERT_EQ(back.phases.size(), 1u);
  EXPECT_EQ(back.phases[0].matched, 2u);
  EXPECT_EQ(back.phases[0].heavy_procs, (std::vector<std::uint32_t>{10, 11}));
  EXPECT_EQ(back.data_wire.bytes_sent, 123u);
  EXPECT_EQ(back.data_wire.barriers, 9u);
  EXPECT_EQ(back.data_wire.barrier_rtt_us.total(), 3u);
  EXPECT_EQ(back.control_wire.frames_sent, 5u);
  EXPECT_EQ(back.control_wire.barriers, 0u);
}

// ---------------------------------------------------------------------------
// Endpoint pairs (live sockets)
// ---------------------------------------------------------------------------

class EndpointPair : public ::testing::TestWithParam<WireKind> {};

TEST_P(EndpointPair, PingPongWithSequenceAndAccounting) {
  auto [a, b] = make_stream_pair(GetParam());
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());

  const auto ping = bytes({1, 2, 3});
  a.send_frame(FrameType::kRun, ping);
  a.send_frame(FrameType::kCollect, nullptr, 0);

  Frame f1 = b.recv_frame();
  EXPECT_EQ(f1.type, FrameType::kRun);
  EXPECT_EQ(f1.seq, 1u);
  EXPECT_EQ(f1.payload, ping);
  Frame f2 = b.recv_frame();
  EXPECT_EQ(f2.type, FrameType::kCollect);
  EXPECT_EQ(f2.seq, 2u);

  b.send_frame(FrameType::kDone, nullptr, 0);
  Frame f3 = a.recv_frame();
  EXPECT_EQ(f3.type, FrameType::kDone);

  EXPECT_EQ(a.frames_sent(), 2u);
  EXPECT_EQ(b.frames_received(), 2u);
  EXPECT_EQ(a.frames_received(), 1u);
  EXPECT_EQ(a.bytes_sent(), 2 * kFrameHeaderSize + ping.size());
  EXPECT_EQ(b.bytes_received(), a.bytes_sent());

  obs::WireStats ws;
  a.account_into(ws);
  b.account_into(ws);
  EXPECT_EQ(ws.frames_sent, 3u);
  EXPECT_EQ(ws.frames_received, 3u);
}

INSTANTIATE_TEST_SUITE_P(Wires, EndpointPair,
                         ::testing::Values(WireKind::kUds, WireKind::kTcp),
                         [](const auto& param_info) {
                           return param_info.param == WireKind::kUds ? "uds"
                                                                     : "tcp";
                         });

}  // namespace
