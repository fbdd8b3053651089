#include "net/encoding.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/lz.h"
#include "common/random.h"
#include "snapshot/snapshot_manager.h"

namespace snapdiff {
namespace {

// ---------------------------------------------------------------------------
// Varint / zigzag primitives

TEST(WireCodingTest, VarintBoundaryValues) {
  const uint64_t cases[] = {0,
                            1,
                            127,
                            128,
                            16383,
                            16384,
                            (1ull << 32) - 1,
                            1ull << 32,
                            std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : cases) {
    std::string buf;
    PutVarint64(&buf, v);
    std::string_view in = buf;
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(&in, &got).ok()) << v;
    EXPECT_EQ(got, v);
    EXPECT_TRUE(in.empty());
  }
}

TEST(WireCodingTest, VarintZigzagFuzzRoundTrip) {
  Random rng(20260808);
  for (int i = 0; i < 5000; ++i) {
    // Bias toward small magnitudes and mix in full-width values.
    const int shift = static_cast<int>(rng.Uniform(64));
    const uint64_t u = rng.NextUint64() >> shift;
    const int64_t z = static_cast<int64_t>(rng.NextUint64() >> shift) *
                      (rng.Uniform(2) == 0 ? 1 : -1);
    std::string buf;
    PutVarint64(&buf, u);
    PutZigzagVarint(&buf, z);
    std::string_view in = buf;
    uint64_t got_u = 0;
    int64_t got_z = 0;
    ASSERT_TRUE(GetVarint64(&in, &got_u).ok());
    ASSERT_TRUE(GetZigzagVarint(&in, &got_z).ok());
    EXPECT_EQ(got_u, u);
    EXPECT_EQ(got_z, z);
    EXPECT_TRUE(in.empty());
  }
  // Signed extremes survive the zigzag.
  for (int64_t z : {std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max(), int64_t{0}}) {
    std::string buf;
    PutZigzagVarint(&buf, z);
    std::string_view in = buf;
    int64_t got = 0;
    ASSERT_TRUE(GetZigzagVarint(&in, &got).ok());
    EXPECT_EQ(got, z);
  }
}

TEST(WireCodingTest, VarintRejectsTruncationAndOverflow) {
  std::string buf;
  PutVarint64(&buf, std::numeric_limits<uint64_t>::max());
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    std::string_view in(buf.data(), cut);
    uint64_t v = 0;
    EXPECT_FALSE(GetVarint64(&in, &v).ok()) << "cut " << cut;
  }
  // Eleven continuation bytes: more than a uint64 can hold.
  std::string over(11, static_cast<char>(0x80));
  over.push_back(0x01);
  std::string_view in = over;
  uint64_t v = 0;
  EXPECT_FALSE(GetVarint64(&in, &v).ok());
}

// ---------------------------------------------------------------------------
// LZ block codec

TEST(WireLzTest, RoundTripFuzz) {
  Random rng(7);
  for (int i = 0; i < 200; ++i) {
    std::string input;
    const size_t runs = rng.Uniform(40);
    for (size_t r = 0; r < runs; ++r) {
      if (rng.Uniform(2) == 0) {
        // Compressible: repeat a short motif.
        std::string motif;
        const size_t mlen = 1 + rng.Uniform(12);
        for (size_t k = 0; k < mlen; ++k) {
          motif.push_back(static_cast<char>('a' + rng.Uniform(6)));
        }
        for (size_t k = 0; k < 1 + rng.Uniform(30); ++k) input += motif;
      } else {
        // Incompressible: random bytes.
        for (size_t k = 0; k < rng.Uniform(60); ++k) {
          input.push_back(static_cast<char>(rng.Uniform(256)));
        }
      }
    }
    std::string block;
    LzCompress(input, &block);
    std::string out;
    ASSERT_TRUE(LzDecompress(block, input.size(), &out).ok())
        << "iter " << i << " size " << input.size();
    EXPECT_EQ(out, input);
  }
}

TEST(WireLzTest, CorruptBlocksRejectedWithoutCrashing) {
  std::string input;
  for (int i = 0; i < 50; ++i) input += "the quick brown fox ";
  std::string block;
  LzCompress(input, &block);

  for (size_t cut = 0; cut < block.size(); ++cut) {
    std::string out;
    // Truncations either fail cleanly or (a literal-only prefix) produce a
    // short output the size check exposes; they must never crash.
    Status status =
        LzDecompress(std::string_view(block.data(), cut), input.size(), &out);
    if (status.ok()) {
      EXPECT_LT(out.size(), input.size());
    }
  }
  Random rng(99);
  for (int i = 0; i < 500; ++i) {
    std::string bad = block;
    bad[rng.Uniform(bad.size())] ^=
        static_cast<char>(1 + rng.Uniform(255));
    std::string out;
    // A flipped byte may still decode (the format carries no checksum —
    // framing CRCs live at the transport); the requirement is bounded
    // output and no crash.
    (void)LzDecompress(bad, input.size(), &out);
    EXPECT_LE(out.size(), input.size());
  }
  // The output cap is enforced even for well-formed blocks.
  std::string out;
  EXPECT_FALSE(LzDecompress(block, input.size() / 2, &out).ok());
}

// ---------------------------------------------------------------------------
// Encoder/decoder units

Schema WideSchema() {
  return Schema({{"Name", TypeId::kString, false},
                 {"Dept", TypeId::kString, false},
                 {"Salary", TypeId::kInt64, false},
                 {"Bonus", TypeId::kDouble, false},
                 {"Active", TypeId::kBool, false},
                 {"Note", TypeId::kString, true}});
}

std::string WideRow(const Schema& schema, int i, int64_t salary,
                    bool with_note = false) {
  Tuple t({Value::String("emp" + std::to_string(i)),
           Value::String(i % 2 == 0 ? "eng" : "ops"),
           Value::Int64(salary), Value::Double(salary * 0.1),
           Value::Bool(i % 3 == 0),
           with_note ? Value::String("note" + std::to_string(i))
                     : Value::Null(TypeId::kString)});
  auto bytes = t.Serialize(schema);
  EXPECT_TRUE(bytes.ok());
  return *bytes;
}

/// An encoder/decoder pair over one schema, with helpers that mimic the
/// serve path: encode → stamp session/seq → admit.
struct CodecPair {
  Schema schema = WideSchema();
  WireEncoder encoder;
  WireDecoder decoder;
  uint64_t next_seq = 0;

  explicit CodecPair(bool compression = false)
      : encoder(WireCodecOptions{compression},
                [this](SnapshotId) { return &schema; }),
        decoder(WireCodecOptions{},
                [this](SnapshotId) { return &schema; }) {}

  Result<Message> RoundTrip(Message canonical, uint64_t session) {
    ASSIGN_OR_RETURN(Message encoded, encoder.Encode(canonical));
    encoded.session_id = session;
    encoded.seq = ++next_seq;
    canonical.session_id = session;
    canonical.seq = encoded.seq;
    ASSIGN_OR_RETURN(Message decoded, decoder.Admit(encoded));
    EXPECT_TRUE(decoded == canonical) << "canonical mismatch after decode";
    return decoded;
  }

  void EndSession(SnapshotId id, uint64_t session) {
    Message end = MakeEndOfRefresh(id, Address::Null(), 1);
    end.session_id = session;
    end.seq = ++next_seq;
    ASSERT_TRUE(decoder.Admit(end).ok());
    encoder.CommitStream(id, session);
  }
};

TEST(WireCodecTest, PassthroughOutsideAnyStream) {
  CodecPair codec;
  Message upsert = MakeUpsert(1, Address::FromRaw(10),
                              WideRow(codec.schema, 1, 50));
  auto encoded = codec.encoder.Encode(upsert);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded->type, MessageType::kUpsert);
  EXPECT_TRUE(*encoded == upsert);
}

TEST(WireCodecTest, SingleMessagesRoundTripAllShapes) {
  CodecPair codec;
  codec.encoder.BeginStream(1, 7, /*resumed=*/false);

  Message clear = MakeClear(1);
  Message entry = MakeEntry(1, Address::FromRaw(10), Address::FromRaw(4),
                            WideRow(codec.schema, 1, 50));
  Message anchor = MakeEntry(1, Address::FromRaw(11), Address::FromRaw(10),
                             "");  // payload-less anchor entry
  Message upsert =
      MakeUpsert(1, Address::FromRaw(12), WideRow(codec.schema, 2, 60));
  Message del = MakeDeleteMsg(1, Address::FromRaw(12));
  Message range = MakeDeleteRange(1, Address::FromRaw(5), Address::FromRaw(9));
  Message opaque = MakeUpsert(1, Address::FromRaw(13), "not a tuple");

  for (const Message& m :
       {clear, entry, anchor, upsert, del, range, opaque}) {
    auto decoded = codec.RoundTrip(m, 7);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->type, m.type);
  }
  const WireCodecStats enc_stats = codec.encoder.stats();
  EXPECT_EQ(enc_stats.encoded_messages, 7u);
  EXPECT_EQ(enc_stats.opaque_rows, 1u);
  EXPECT_GE(enc_stats.columnar_rows, 2u);
  codec.EndSession(1, 7);
}

TEST(WireCodecTest, BatchColumnarDictionaryShrinksWire) {
  CodecPair codec;
  codec.encoder.BeginStream(1, 3, /*resumed=*/false);
  std::vector<Message> entries;
  for (int i = 0; i < 64; ++i) {
    entries.push_back(MakeUpsert(1, Address::FromRaw(100 + i * 3),
                                 WideRow(codec.schema, i, 1000 + i)));
  }
  auto batch = MakeEntryBatch(entries);
  ASSERT_TRUE(batch.ok());
  auto encoded = codec.encoder.Encode(*batch);
  ASSERT_TRUE(encoded.ok());
  ASSERT_EQ(encoded->type, MessageType::kEncoded);
  // Column-major varints + the two-value Dept dictionary must beat the
  // row-major canonical layout by a wide margin.
  EXPECT_LT(encoded->payload.size(), batch->payload.size() / 2)
      << "encoded " << encoded->payload.size() << " vs canonical "
      << batch->payload.size();
  auto count = EncodedEntryCount(*encoded);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 64u);
  auto inner = EncodedInnerType(*encoded);
  ASSERT_TRUE(inner.ok());
  EXPECT_EQ(*inner, MessageType::kEntryBatch);

  Message stamped = *encoded;
  stamped.session_id = 3;
  stamped.seq = 1;
  auto decoded = codec.decoder.Admit(stamped);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, MessageType::kEntryBatch);
  EXPECT_EQ(decoded->payload, batch->payload);
  EXPECT_EQ(codec.encoder.stats().columnar_rows, 64u);
}

TEST(WireCodecTest, SecondRefreshShipsFieldDeltas) {
  CodecPair codec;
  // Session 1: the full rows establish the shared shadow.
  codec.encoder.BeginStream(1, 11, /*resumed=*/false);
  std::vector<Message> first;
  for (int i = 0; i < 32; ++i) {
    first.push_back(MakeUpsert(1, Address::FromRaw(10 + i),
                               WideRow(codec.schema, i, 1000 + i)));
  }
  auto batch1 = MakeEntryBatch(first);
  ASSERT_TRUE(batch1.ok());
  ASSERT_TRUE(codec.RoundTrip(*batch1, 11).ok());
  codec.EndSession(1, 11);
  EXPECT_EQ(codec.encoder.generation(1), 1u);
  EXPECT_EQ(codec.decoder.generation(1), 1u);

  // Session 2: same rows, one integer field nudged — the delta form ships
  // a couple of varints per row instead of the whole tuple.
  codec.encoder.BeginStream(1, 12, /*resumed=*/false);
  std::vector<Message> second;
  for (int i = 0; i < 32; ++i) {
    second.push_back(MakeUpsert(1, Address::FromRaw(10 + i),
                                WideRow(codec.schema, i, 1001 + i)));
  }
  auto batch2 = MakeEntryBatch(second);
  ASSERT_TRUE(batch2.ok());
  auto encoded = codec.encoder.Encode(*batch2);
  ASSERT_TRUE(encoded.ok());
  // Two fields change per row (Salary, and Bonus rides on it): the delta
  // form still beats the full tuples by ≥ 3x.
  EXPECT_LT(encoded->payload.size(), batch2->payload.size() / 3)
      << "delta-friendly round should shrink ≥ 3x, got "
      << encoded->payload.size() << " vs " << batch2->payload.size();
  EXPECT_EQ(codec.encoder.stats().delta_rows, 32u);

  Message stamped = *encoded;
  stamped.session_id = 12;
  stamped.seq = ++codec.next_seq;
  auto decoded = codec.decoder.Admit(stamped);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->payload, batch2->payload);
  EXPECT_EQ(codec.decoder.stats().delta_rows, 32u);
  codec.EndSession(1, 12);
}

TEST(WireCodecTest, UnchangedRowShipsAsShadowReference) {
  CodecPair codec;
  codec.encoder.BeginStream(1, 5, /*resumed=*/false);
  Message row =
      MakeUpsert(1, Address::FromRaw(42), WideRow(codec.schema, 9, 77));
  ASSERT_TRUE(codec.RoundTrip(row, 5).ok());
  codec.EndSession(1, 5);

  codec.encoder.BeginStream(1, 6, /*resumed=*/false);
  auto encoded = codec.encoder.Encode(row);
  ASSERT_TRUE(encoded.ok());
  // nchanged = 0: flags byte + varints only.
  EXPECT_LT(encoded->payload.size(), 12u);
  Message stamped = *encoded;
  stamped.session_id = 6;
  stamped.seq = ++codec.next_seq;
  auto decoded = codec.decoder.Admit(stamped);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->payload, row.payload);
}

TEST(WireCodecTest, CompressionNegotiatedAndTransparent) {
  CodecPair codec(/*compression=*/true);
  codec.encoder.BeginStream(1, 9, /*resumed=*/false);
  std::vector<Message> entries;
  for (int i = 0; i < 64; ++i) {
    entries.push_back(MakeUpsert(1, Address::FromRaw(100 + i),
                                 WideRow(codec.schema, i % 4, 50)));
  }
  auto batch = MakeEntryBatch(entries);
  ASSERT_TRUE(batch.ok());
  auto decoded = codec.RoundTrip(*batch, 9);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->payload, batch->payload);
  EXPECT_GE(codec.encoder.stats().compressed_blocks, 1u);
  codec.EndSession(1, 9);
}

TEST(WireCodecTest, DecoderCountsTheCompressedBlocksItInflates) {
  CodecPair codec(/*compression=*/true);
  codec.encoder.BeginStream(1, 9, /*resumed=*/false);
  for (int round = 0; round < 3; ++round) {
    std::vector<Message> entries;
    for (int i = 0; i < 64; ++i) {
      entries.push_back(MakeUpsert(1, Address::FromRaw(100 + 64 * round + i),
                                   WideRow(codec.schema, i % 4, 50)));
    }
    auto batch = MakeEntryBatch(entries);
    ASSERT_TRUE(batch.ok());
    ASSERT_TRUE(codec.RoundTrip(*batch, 9).ok());
  }
  // A tiny singleton too: whether or not LZ pays for it, both sides agree.
  ASSERT_TRUE(
      codec.RoundTrip(MakeDeleteMsg(1, Address::FromRaw(7)), 9).ok());
  codec.EndSession(1, 9);
  EXPECT_GE(codec.encoder.stats().compressed_blocks, 3u);
  EXPECT_EQ(codec.decoder.stats().compressed_blocks,
            codec.encoder.stats().compressed_blocks);
}

TEST(WireCodecTest, GenerationMismatchHealsWithResetRound) {
  CodecPair codec;
  codec.encoder.BeginStream(1, 21, /*resumed=*/false);
  Message row =
      MakeUpsert(1, Address::FromRaw(7), WideRow(codec.schema, 1, 10));
  ASSERT_TRUE(codec.RoundTrip(row, 21).ok());
  codec.EndSession(1, 21);
  ASSERT_EQ(codec.encoder.generation(1), 1u);

  // The peer restarted: a fresh decoder is back at generation 0 with an
  // empty shadow. The demand reports 0; the encoder resets and the next
  // stream carries the reset flag, so full payloads re-establish state.
  WireDecoder fresh(WireCodecOptions{},
                    [&codec](SnapshotId) { return &codec.schema; });
  codec.encoder.SyncGeneration(1, fresh.generation(1));
  EXPECT_EQ(codec.encoder.stats().stream_resets, 1u);
  codec.encoder.BeginStream(1, 22, /*resumed=*/false);
  auto encoded = codec.encoder.Encode(row);
  ASSERT_TRUE(encoded.ok());
  Message stamped = *encoded;
  stamped.session_id = 22;
  stamped.seq = 1;
  auto decoded = fresh.Admit(stamped);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  Message expect = row;
  expect.session_id = 22;
  expect.seq = 1;
  EXPECT_TRUE(*decoded == expect);
  EXPECT_EQ(fresh.stats().stream_resets, 1u);

  Message end = MakeEndOfRefresh(1, Address::Null(), 2);
  end.session_id = 22;
  end.seq = 2;
  ASSERT_TRUE(fresh.Admit(end).ok());
  codec.encoder.CommitStream(1, 22);
  EXPECT_EQ(codec.encoder.generation(1), 1u);
  EXPECT_EQ(fresh.generation(1), 1u);
}

TEST(WireCodecTest, StaleGenerationStreamRejected) {
  CodecPair codec;
  // Complete a session end-to-end so both sides sit at generation 1, but
  // keep a copy of one of its encoded frames (stamped with stream_gen 0).
  codec.encoder.BeginStream(1, 31, /*resumed=*/false);
  Message row =
      MakeUpsert(1, Address::FromRaw(3), WideRow(codec.schema, 0, 5));
  auto encoded = codec.encoder.Encode(row);
  ASSERT_TRUE(encoded.ok());
  Message delivered = *encoded;
  delivered.session_id = 31;
  delivered.seq = 1;
  ASSERT_TRUE(codec.decoder.Admit(delivered).ok());
  codec.next_seq = 1;
  codec.EndSession(1, 31);
  ASSERT_EQ(codec.decoder.generation(1), 1u);

  // Replaying the stale frame under a fresh session id must be refused by
  // the generation check — it was encoded against a shadow one commit old.
  Message stale = *encoded;
  stale.session_id = 33;
  stale.seq = 1;
  auto refused = codec.decoder.Admit(stale);
  EXPECT_TRUE(refused.status().IsCorruption())
      << refused.status().ToString();
}

TEST(WireCodecTest, CorruptEncodedPayloadNeverCrashes) {
  CodecPair codec(/*compression=*/true);
  codec.encoder.BeginStream(1, 41, /*resumed=*/false);
  std::vector<Message> entries;
  for (int i = 0; i < 16; ++i) {
    entries.push_back(MakeUpsert(1, Address::FromRaw(50 + i),
                                 WideRow(codec.schema, i, 200 + i)));
  }
  auto batch = MakeEntryBatch(entries);
  ASSERT_TRUE(batch.ok());
  auto encoded = codec.encoder.Encode(*batch);
  ASSERT_TRUE(encoded.ok());
  Message stamped = *encoded;
  stamped.session_id = 41;
  stamped.seq = 1;

  // Every truncation length: a fresh decoder must return a Status (or, for
  // self-delimiting prefixes, a decode) — never crash or hang.
  for (size_t cut = 0; cut <= stamped.payload.size(); ++cut) {
    WireDecoder victim(WireCodecOptions{},
                       [&codec](SnapshotId) { return &codec.schema; });
    Message truncated = stamped;
    truncated.payload.resize(cut);
    (void)victim.Admit(truncated);
  }
  // Random byte flips, including in the compressed block.
  Random rng(1234);
  for (int i = 0; i < 2000; ++i) {
    WireDecoder victim(WireCodecOptions{},
                       [&codec](SnapshotId) { return &codec.schema; });
    Message bad = stamped;
    bad.payload[rng.Uniform(bad.payload.size())] ^=
        static_cast<char>(1 + rng.Uniform(255));
    (void)victim.Admit(bad);
  }
  // An intact copy still decodes after all that (encoder state untouched).
  WireDecoder good(WireCodecOptions{},
                   [&codec](SnapshotId) { return &codec.schema; });
  auto decoded = good.Admit(stamped);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->payload, batch->payload);
}

TEST(WireCodecTest, DeltaAgainstUnknownRowRejected) {
  CodecPair codec;
  codec.encoder.BeginStream(1, 51, /*resumed=*/false);
  Message row =
      MakeUpsert(1, Address::FromRaw(8), WideRow(codec.schema, 2, 30));
  ASSERT_TRUE(codec.RoundTrip(row, 51).ok());
  codec.EndSession(1, 51);

  // A delta for a row the decoder never folded must be refused, not
  // misapplied.
  codec.encoder.BeginStream(1, 52, /*resumed=*/false);
  auto encoded = codec.encoder.Encode(row);  // nchanged = 0 delta
  ASSERT_TRUE(encoded.ok());
  WireDecoder blank(WireCodecOptions{},
                    [&codec](SnapshotId) { return &codec.schema; });
  Message stamped = *encoded;
  stamped.session_id = 52;
  stamped.seq = 1;
  // Force the generation past the blank decoder's check by reusing gen 0?
  // No: the blank decoder holds gen 0 while the stream carries gen 1, so
  // the generation guard fires first — exactly the defense in depth that
  // keeps a desynced shadow from ever decoding wrong bytes.
  auto refused = blank.Admit(stamped);
  EXPECT_TRUE(refused.status().IsCorruption());
}

TEST(WireCodecTest, MemoSharesEncodedBodiesAcrossStreams) {
  Schema schema = WideSchema();
  auto memo = std::make_shared<WireEncodeMemo>();
  WireSchemaResolver resolver = [&schema](SnapshotId) { return &schema; };
  WireEncoder enc(WireCodecOptions{}, resolver, memo);
  // Two member snapshots of a group refresh receive the same fan-out row.
  enc.BeginStream(1, 61, /*resumed=*/false);
  enc.BeginStream(2, 62, /*resumed=*/false);
  const std::string payload = WideRow(schema, 4, 400);
  auto a = enc.Encode(MakeUpsert(1, Address::FromRaw(9), payload));
  auto b = enc.Encode(MakeUpsert(2, Address::FromRaw(9), payload));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->payload, b->payload);
  EXPECT_EQ(enc.stats().memo_hits, 1u);
}

// ---------------------------------------------------------------------------
// Whole-system equivalence: every refresh method, encoded vs plain twins

Schema EmpSchema() {
  return Schema({{"Name", TypeId::kString, false},
                 {"Salary", TypeId::kInt64, false}});
}

Tuple EmpRow(std::string name, int64_t salary) {
  return Tuple({Value::String(std::move(name)), Value::Int64(salary)});
}

std::vector<Address> Load(BaseTable* base, int rows) {
  std::vector<Address> addrs;
  for (int i = 0; i < rows; ++i) {
    auto addr = base->Insert(EmpRow("e" + std::to_string(i), i % 100));
    EXPECT_TRUE(addr.ok());
    addrs.push_back(*addr);
  }
  return addrs;
}

void Churn(BaseTable* base, std::vector<Address>* addrs, int round) {
  for (size_t i = round % 3; i < addrs->size(); i += 7) {
    ASSERT_TRUE(base->Update((*addrs)[i],
                             EmpRow("u" + std::to_string(i),
                                    static_cast<int64_t>((i * 3 + round) %
                                                         100)))
                    .ok());
  }
  for (size_t i = addrs->size() - 1; i > 0; i -= 13) {
    ASSERT_TRUE(base->Delete((*addrs)[i]).ok());
    addrs->erase(addrs->begin() + static_cast<ptrdiff_t>(i));
    if (i < 13) break;
  }
  for (int i = 0; i < 8; ++i) {
    auto addr =
        base->Insert(EmpRow("n" + std::to_string(round * 100 + i),
                            static_cast<int64_t>((i * 11 + round) % 100)));
    ASSERT_TRUE(addr.ok());
    addrs->push_back(*addr);
  }
}

void ExpectFaithful(SnapshotSystem* sys, const std::string& name) {
  auto expected = sys->ExpectedContents(name);
  ASSERT_TRUE(expected.ok());
  auto snap = sys->GetSnapshot(name);
  ASSERT_TRUE(snap.ok());
  auto actual = (*snap)->Contents();
  ASSERT_TRUE(actual.ok());
  ASSERT_EQ(actual->size(), expected->size());
  for (const auto& [addr, row] : *expected) {
    ASSERT_TRUE(actual->contains(addr)) << "missing " << addr.ToString();
    EXPECT_TRUE(actual->at(addr).Equals(row))
        << "differs at " << addr.ToString();
  }
}

class EncodedRefreshTest : public ::testing::TestWithParam<RefreshMethod> {};

TEST_P(EncodedRefreshTest, EncodedSystemMatchesPlainTwin) {
  const RefreshMethod method = GetParam();
  SnapshotSystemOptions wire_options;
  wire_options.wire_encoding = true;
  wire_options.wire_compression = true;
  SnapshotSystem enc_sys(wire_options);
  SnapshotSystem plain_sys;

  auto enc_base = enc_sys.CreateBaseTable("emp", EmpSchema());
  auto plain_base = plain_sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(enc_base.ok());
  ASSERT_TRUE(plain_base.ok());
  std::vector<Address> enc_addrs = Load(*enc_base, 120);
  std::vector<Address> plain_addrs = Load(*plain_base, 120);

  SnapshotOptions snap_options;
  snap_options.method = method;
  ASSERT_TRUE(
      enc_sys.CreateSnapshot("snap", "emp", "Salary < 60", snap_options)
          .ok());
  ASSERT_TRUE(
      plain_sys.CreateSnapshot("snap", "emp", "Salary < 60", snap_options)
          .ok());

  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    auto enc_report = enc_sys.Refresh(RefreshRequest::For("snap"));
    ASSERT_TRUE(enc_report.ok()) << enc_report.status().ToString();
    ASSERT_TRUE(plain_sys.Refresh(RefreshRequest::For("snap")).ok());
    ExpectFaithful(&enc_sys, "snap");
    ExpectFaithful(&plain_sys, "snap");

    // The encoded twin must hold bit-identical contents to the plain one.
    auto enc_snap = enc_sys.GetSnapshot("snap");
    auto plain_snap = plain_sys.GetSnapshot("snap");
    ASSERT_TRUE(enc_snap.ok());
    ASSERT_TRUE(plain_snap.ok());
    auto enc_contents = (*enc_snap)->Contents();
    auto plain_contents = (*plain_snap)->Contents();
    ASSERT_TRUE(enc_contents.ok());
    ASSERT_TRUE(plain_contents.ok());
    ASSERT_EQ(enc_contents->size(), plain_contents->size());
    for (const auto& [addr, row] : *plain_contents) {
      ASSERT_TRUE(enc_contents->contains(addr));
      EXPECT_TRUE(enc_contents->at(addr).Equals(row));
    }

    Churn(*enc_base, &enc_addrs, round + 1);
    Churn(*plain_base, &plain_addrs, round + 1);
  }
  const WireCodecStats stats = enc_sys.WireEncoderStats();
  EXPECT_GT(stats.encoded_messages, 0u);
  EXPECT_LT(stats.bytes_out, stats.bytes_in)
      << "encoding must not inflate the stream";
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, EncodedRefreshTest,
    ::testing::Values(RefreshMethod::kFull, RefreshMethod::kDifferential,
                      RefreshMethod::kIdeal, RefreshMethod::kLogBased,
                      RefreshMethod::kAsap),
    [](const ::testing::TestParamInfo<RefreshMethod>& param_info) {
      std::string name(RefreshMethodToString(param_info.param));
      for (char& c : name) {
        if (c == '-' || c == ' ') c = '_';
      }
      return name;
    });

TEST(EncodedRefreshTest, SurvivesFaultsAndResumesEncoded) {
  SnapshotSystemOptions options;
  options.wire_encoding = true;
  options.wire_compression = true;
  SnapshotSystem sys(options);
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  std::vector<Address> addrs = Load(*base, 200);
  ASSERT_TRUE(sys.CreateSnapshot("snap", "emp", "Salary < 80").ok());
  ASSERT_TRUE(sys.Refresh(RefreshRequest::For("snap")).ok());
  ExpectFaithful(&sys, "snap");

  Random rng(5150);
  uint64_t resumes = 0;
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    Churn(*base, &addrs, round + 1);
    FaultPlan plan = FaultPlan::None();
    switch (rng.Uniform(3)) {
      case 0:
        plan = FaultPlan::PartitionAfter(3 + rng.Uniform(10))
                   .WithHealAfter(1);
        break;
      case 1:
        plan = FaultPlan::None()
                   .WithDropEvery(2 + rng.Uniform(4))
                   .WithHealAfter(1 + rng.Uniform(3));
        break;
      default:
        plan = FaultPlan::None()
                   .WithDuplicateEvery(2 + rng.Uniform(4))
                   .WithReorder(1 + rng.Uniform(3), rng.Uniform(1u << 20));
        break;
    }
    RefreshRequest req = RefreshRequest::For("snap");
    req.fault = plan;
    req.retry.max_retries = 8;
    auto report = sys.Refresh(req);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    resumes += report->resumes;
    ExpectFaithful(&sys, "snap");
  }
  EXPECT_GT(resumes, 0u) << "fault plans never exercised a resume";
  EXPECT_GT(sys.WireEncoderStats().encoded_messages, 0u);
}

TEST(EncodedRefreshTest, GroupRefreshReusesEncodedBodies) {
  SnapshotSystemOptions options;
  options.wire_encoding = true;
  SnapshotSystem sys(options);
  auto base = sys.CreateBaseTable("emp", EmpSchema());
  ASSERT_TRUE(base.ok());
  std::vector<Address> addrs = Load(*base, 150);
  // Same-class members: identical restriction, so the shared scan fans the
  // same rows (and thus the same encoded bodies) out to every member.
  for (const char* name : {"g1", "g2", "g3"}) {
    ASSERT_TRUE(sys.CreateSnapshot(name, "emp", "Salary < 70").ok());
  }
  auto first = sys.RefreshGroup({"g1", "g2", "g3"});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Churn(*base, &addrs, 1);
  auto second = sys.RefreshGroup({"g1", "g2", "g3"});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  for (const char* name : {"g1", "g2", "g3"}) {
    ExpectFaithful(&sys, name);
  }
  const WireCodecStats stats = sys.WireEncoderStats();
  EXPECT_GT(stats.encoded_messages, 0u);
  EXPECT_GT(stats.memo_hits, 0u)
      << "group fan-out should reuse encoded bodies via the memo";
}

}  // namespace
}  // namespace snapdiff
