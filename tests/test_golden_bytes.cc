/**
 * @file
 * Golden-byte pins of every persistent and on-the-wire format: wire
 * frames (untraced v2 and traced v3), every typed payload builder of
 * net/wire.hh, a predictor state snapshot with a caller section, a
 * serve shard capture (which carries the serve-counter section), and
 * trace files at v1 and v2.
 *
 * The other codec tests are round trips, which a matching change to
 * both the encoder and the decoder would still pass. These pins fail
 * on any change to the bytes themselves. Small outputs are pinned as
 * hex; large ones as their length plus a 64-bit FNV-1a hash.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "core/hybrid_predictor.hh"
#include "core/state_io.hh"
#include "net/wire.hh"
#include "serve/service.hh"
#include "trace/trace_io.hh"
#include "util/atomic_file.hh"

namespace clap
{
namespace
{

using namespace clap::net;

std::string
hex(const std::string &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    for (const char c : bytes) {
        const auto b = static_cast<unsigned char>(c);
        out += digits[b >> 4];
        out += digits[b & 0xf];
    }
    return out;
}

/**
 * "len=N fnv=X" of @p bytes, for outputs too long for hex. FNV-1a
 * rather than CRC-32: a snapshot ends in the CRC-32 of everything
 * before it, and the CRC-32 of such a message is a constant.
 */
std::string
fingerprint(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "len=%zu fnv=%016llx", bytes.size(),
                  static_cast<unsigned long long>(hash));
    return buf;
}

LoadInfo
sampleLoadInfo()
{
    LoadInfo info;
    info.pc = 0x0000000008048010ull;
    info.immOffset = -8;
    info.ghr = 0x00000000000000a5ull;
    info.pathHist = 0x0123456789abcdefull;
    return info;
}

Prediction
samplePrediction()
{
    Prediction pred;
    pred.lbHit = true;
    pred.hasAddress = true;
    pred.speculate = false;
    pred.capHasAddr = true;
    pred.capSpec = false;
    pred.strideHasAddr = true;
    pred.strideSpec = true;
    pred.component = Component::Stride;
    pred.selectorState = 2;
    pred.addr = 0x10000020;
    pred.capAddr = 0x10000040;
    pred.strideAddr = 0x10000020;
    pred.lbHandle.valid = true;
    pred.lbHandle.slot = 17;
    pred.lbHandle.gen = 3;
    return pred;
}

/** A PredictionStats whose every counter is distinct. */
PredictionStats
sampleStats(std::uint64_t base)
{
    PredictionStats stats;
    std::uint64_t v = base;
    stats.loads = v++;
    stats.lbHits = v++;
    stats.formed = v++;
    stats.formedCorrect = v++;
    stats.spec = v++;
    stats.specCorrect = v++;
    for (auto &c : stats.specBy)
        c = v++;
    for (auto &c : stats.specCorrectBy)
        c = v++;
    stats.bothSpec = v++;
    for (auto &c : stats.selectorState)
        c = v++;
    stats.missSelections = v++;
    return stats;
}

/** The fixed load stream every predictor-state pin trains on. */
template <typename Fn>
void
forEachLoad(Fn &&fn)
{
    for (std::uint64_t i = 0; i < 400; ++i) {
        LoadInfo info;
        info.pc = 0x2000 + (i % 11) * 4;
        info.immOffset = static_cast<std::int32_t>(i % 3) * 8;
        info.ghr = i * 0x9e37u;
        info.pathHist = i % 5;
        const std::uint64_t addr =
            0x8000 + (i % 7) * 64 + (i % 11) * 0x1000 + (i / 50) * 8;
        fn(info, addr);
    }
}

TEST(GoldenBytes, UntracedFrame)
{
    Frame frame;
    frame.type = FrameType::Predict;
    frame.id = 0x0102030405060708ull;
    frame.payload = "abc";
    // magic, version 2, type, id, length, header CRC, payload,
    // payload CRC.
    EXPECT_EQ(hex(encodeFrame(frame)),
              "434c4e50" "0200" "0300" "0807060504030201" "03000000"
              "81713295" "616263" "c2412435");
}

TEST(GoldenBytes, TracedFrame)
{
    Frame frame;
    frame.type = FrameType::TrainOk;
    frame.id = 42;
    frame.payload = "xy";
    frame.trace.traceId = 0x1122334455667788ull;
    frame.trace.spanId = 0x99aabbccddeeff00ull;
    frame.trace.sampled = true;
    // Version 3; the payload starts with trace id, parent span id and
    // the sampled flag.
    EXPECT_EQ(hex(encodeFrame(frame)),
              "434c4e50" "0300" "0600" "2a00000000000000" "13000000"
              "d22052b0" "8877665544332211" "00ffeeddccbbaa99" "01"
              "7879" "1fc6b914");
}

TEST(GoldenBytes, HandshakePayloads)
{
    EXPECT_EQ(hex(encodeHello("client-a")),
              "0300" "08000000" "636c69656e742d61");
    EXPECT_EQ(hex(encodeHello("old", 2)), "0200" "03000000" "6f6c64");
    // The clock epoch travels only at v3.
    EXPECT_EQ(hex(encodeHelloOk("clapd", 2, 0x0102030405060708ull)),
              "0200" "05000000" "636c617064");
    EXPECT_EQ(hex(encodeHelloOk("clapd", 3, 0x0102030405060708ull)),
              "0300" "05000000" "636c617064" "0807060504030201");
    EXPECT_EQ(hex(encodeObsFetch(true)), "01");
    EXPECT_EQ(hex(encodeObsFetch(false)), "00");
}

TEST(GoldenBytes, PredictAndTrainPayloads)
{
    // LoadInfo: pc, immOffset, ghr, pathHist.
    EXPECT_EQ(hex(encodePredictRequest(sampleLoadInfo())),
              "1080040800000000" "f8ffffff" "a500000000000000"
              "efcdab8967452301");
    // Prediction: flags, component, selector, addr, capAddr,
    // strideAddr, LB slot, LB generation.
    EXPECT_EQ(hex(encodePredictResponse(0x08048010ull,
                                        samplePrediction())),
              "1080040800000000" "eb" "02" "02" "2000001000000000"
              "4000001000000000" "2000001000000000" "11000000"
              "03000000");
    EXPECT_EQ(hex(encodeTrainRequest(sampleLoadInfo(), 0x10000028ull,
                                     samplePrediction())),
              "1080040800000000" "f8ffffff" "a500000000000000"
              "efcdab8967452301" "2800001000000000" "eb" "02" "02"
              "2000001000000000" "4000001000000000" "2000001000000000"
              "11000000" "03000000");
}

TEST(GoldenBytes, ErrorPayload)
{
    Error error = makeError(ErrorCode::Overloaded, "shard 3 full")
                      .withContext("predict")
                      .withContext("clapd");
    // code, retryable, message, context count, contexts.
    EXPECT_EQ(hex(encodeErrorPayload(error)),
              "0c" "01" "0c000000" "736861726420332066756c6c"
              "02000000" "07000000" "70726564696374" "05000000"
              "636c617064");
    EXPECT_EQ(hex(encodeErrorPayload(
                  makeError(ErrorCode::BadChecksum, ""))),
              "07" "00" "00000000" "00000000");
}

TEST(GoldenBytes, ServiceStatsPayload)
{
    ServiceWireStats stats;
    stats.aggregate = sampleStats(1);
    for (std::uint64_t s = 0; s < 2; ++s) {
        ShardWireStats shard;
        shard.predicts = 100 + s;
        shard.trains = 200 + s;
        shard.rejected = 300 + s;
        shard.unavailable = 400 + s;
        shard.queueDepth = 500 + s;
        shard.quarantined = static_cast<std::uint8_t>(s);
        shard.stats = sampleStats(1000 * (s + 1));
        stats.shards.push_back(shard);
    }
    stats.supervisor.snapshots = 7;
    stats.supervisor.snapshotFailures = 8;
    stats.supervisor.recoveries = 9;
    stats.supervisor.strictRestores = 10;
    stats.supervisor.salvagedRestores = 11;
    stats.supervisor.freshRestarts = 12;
    stats.supervisor.unrecovered = 13;
    EXPECT_EQ(fingerprint(encodeServiceStats(stats)),
              "len=622 fnv=0b9c71d21d4f7a47");
    EXPECT_EQ(fingerprint(encodeServiceStats(ServiceWireStats{})),
              "len=220 fnv=4fdcd09a664840d5");
}

TEST(GoldenBytes, SnapshotPayloads)
{
    EXPECT_EQ(hex(encodeSnapshotRequest(0x01020304u)), "04030201");
    EXPECT_EQ(hex(encodeSnapshotData(5, "state")),
              "05000000" "05000000" "7374617465");
    EXPECT_EQ(hex(encodeSnapshotInstallOk(4, true)), "04000000" "01");
    EXPECT_EQ(hex(encodeSnapshotInstallOk(3, false)), "03000000" "00");
}

TEST(GoldenBytes, PredictorStateSnapshot)
{
    HybridPredictor pred{HybridConfig{}};
    forEachLoad([&pred](const LoadInfo &info, std::uint64_t addr) {
        const Prediction p = pred.predict(info);
        pred.update(info, addr, p);
    });
    StateExtraSection extra;
    extra.id = firstCallerSection + 5;
    extra.payload = "caller-section";
    auto encoded = encodePredictorState(pred, {extra});
    ASSERT_TRUE(encoded) << encoded.error().str();
    EXPECT_EQ(fingerprint(*encoded), "len=663840 fnv=3536d4ffb48f851f");
}

TEST(GoldenBytes, ServeShardCapture)
{
    ServiceConfig config;
    config.shards = 1;
    config.journalCapacity = 64;
    PredictionService service(config, [] {
        return std::make_unique<HybridPredictor>(HybridConfig{});
    });
    forEachLoad([&service](const LoadInfo &info, std::uint64_t addr) {
        auto pred = service.predict(info);
        ASSERT_TRUE(pred) << pred.error().str();
        ASSERT_TRUE(service.train(info, addr, *pred));
    });
    auto captured = service.captureShardState(0);
    ASSERT_TRUE(captured) << captured.error().str();
    EXPECT_EQ(fingerprint(*captured), "len=664018 fnv=06389eb63f6c62c7");
}

class GoldenTraceFile : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = (std::filesystem::temp_directory_path() /
                 ("clap_golden_bytes_" + std::to_string(::getpid()) +
                  ".trc"))
                    .string();
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string
    written(std::uint32_t version)
    {
        Trace trace("golden");
        TraceRecord rec;
        rec.pc = 0x08048010;
        rec.cls = InstClass::Load;
        rec.effAddr = 0x10000020;
        rec.immOffset = -8;
        rec.srcA = 3;
        rec.dst = 4;
        rec.memSize = 4;
        trace.append(rec);
        rec = TraceRecord{};
        rec.pc = 0x08048014;
        rec.cls = InstClass::Branch;
        rec.taken = true;
        rec.target = 0x08048000;
        trace.append(rec);
        rec = TraceRecord{};
        rec.pc = 0x08048018;
        rec.cls = InstClass::Store;
        rec.effAddr = 0xbfff0000;
        rec.srcA = 1;
        rec.srcB = 2;
        rec.memSize = 8;
        trace.append(rec);

        TraceWriteOptions options;
        options.version = version;
        EXPECT_TRUE(writeTrace(trace, path_, options));
        auto bytes = readFileBytes(path_);
        EXPECT_TRUE(bytes) << bytes.error().str();
        return bytes ? *bytes : std::string();
    }

    std::string path_;
};

TEST_F(GoldenTraceFile, VersionOne)
{
    EXPECT_EQ(fingerprint(written(traceFormatVersionV1)),
              "len=150 fnv=120ff00bf491673c");
}

TEST_F(GoldenTraceFile, VersionTwo)
{
    EXPECT_EQ(fingerprint(written(traceFormatVersion)),
              "len=154 fnv=13dee7d012ecedd6");
}

} // namespace
} // namespace clap
