#include "net/wire.hh"

#include <cstring>

#include "util/bytes.hh"
#include "util/crc32.hh"

namespace clap::net
{

const char *
frameTypeName(FrameType type)
{
    switch (type) {
      case FrameType::Hello:             return "Hello";
      case FrameType::HelloOk:           return "HelloOk";
      case FrameType::Predict:           return "Predict";
      case FrameType::PredictOk:         return "PredictOk";
      case FrameType::Train:             return "Train";
      case FrameType::TrainOk:           return "TrainOk";
      case FrameType::Ping:              return "Ping";
      case FrameType::Pong:              return "Pong";
      case FrameType::Stats:             return "Stats";
      case FrameType::StatsOk:           return "StatsOk";
      case FrameType::SnapshotFetch:     return "SnapshotFetch";
      case FrameType::SnapshotData:      return "SnapshotData";
      case FrameType::SnapshotInstall:   return "SnapshotInstall";
      case FrameType::SnapshotInstallOk: return "SnapshotInstallOk";
      case FrameType::Shutdown:          return "Shutdown";
      case FrameType::ShutdownOk:        return "ShutdownOk";
      case FrameType::ErrorReply:        return "ErrorReply";
      case FrameType::GoAway:            return "GoAway";
      case FrameType::ObsFetch:          return "ObsFetch";
      case FrameType::ObsOk:             return "ObsOk";
    }
    return "Unknown";
}

std::string
encodeFrame(const Frame &frame)
{
    // Per-frame versioning: only frames carrying a trace context pay
    // the v3 prefix; everything else is byte-identical to a v2 build.
    const bool traced = frame.trace.valid();
    const std::size_t length =
        (traced ? traceContextBytes : 0) + frame.payload.size();
    ByteWriter w(frameHeaderBytes + length + frameTrailerBytes);
    w.u32(wireMagic);
    w.u16(traced ? wireVersion : wireVersionBase);
    w.u16(static_cast<std::uint16_t>(frame.type));
    w.u64(frame.id);
    w.u32(static_cast<std::uint32_t>(length));
    w.u32(crc32(w.buffer().data(), w.buffer().size()));
    if (traced) {
        w.u64(frame.trace.traceId);
        w.u64(frame.trace.spanId);
        w.u8(frame.trace.sampled ? 1 : 0);
    }
    w.bytes(frame.payload);
    w.u32(crc32(w.buffer().data() + frameHeaderBytes, length));
    return w.take();
}

void
FrameReader::feed(const void *data, std::size_t len)
{
    // Compact lazily: only once the consumed prefix dominates, so
    // steady-state feeds are amortized O(len).
    if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
        buffer_.erase(0, consumed_);
        consumed_ = 0;
    }
    buffer_.append(static_cast<const char *>(data), len);
}

FrameReader::Status
FrameReader::next(Frame &out, Error &error)
{
    if (poisoned_) {
        error = makeError(ErrorCode::ProtocolError,
                          "frame stream already unsynchronized");
        return Status::Corrupt;
    }

    const std::string_view view{buffer_.data() + consumed_,
                                buffer_.size() - consumed_};
    if (view.size() < frameHeaderBytes)
        return Status::NeedMore;

    // The view holds a whole header, so none of these reads can fail.
    ByteReader header(view);
    std::uint32_t magic = 0, length = 0, hcrc = 0;
    std::uint16_t version = 0, rawType = 0;
    std::uint64_t id = 0;
    header.u32(magic);
    header.u16(version);
    header.u16(rawType);
    header.u64(id);
    header.u32(length);
    const std::uint32_t want_hcrc = crc32(view.data(), header.pos());
    header.u32(hcrc);

    // Validate the header CRC before *any* header field: with a bad
    // CRC every field (including length) is untrustworthy.
    if (hcrc != want_hcrc) {
        poisoned_ = true;
        error = makeError(ErrorCode::BadChecksum,
                          "frame header CRC mismatch");
        return Status::Corrupt;
    }
    if (magic != wireMagic) {
        poisoned_ = true;
        error = makeError(ErrorCode::BadMagic,
                          "frame magic mismatch");
        return Status::Corrupt;
    }
    if (version < wireVersionBase || version > wireVersion) {
        poisoned_ = true;
        error = makeError(ErrorCode::BadVersion,
                          "unsupported wire version " +
                              std::to_string(version));
        return Status::Corrupt;
    }
    if (rawType < static_cast<std::uint16_t>(FrameType::Hello) ||
        rawType > static_cast<std::uint16_t>(FrameType::ObsOk)) {
        poisoned_ = true;
        error = makeError(ErrorCode::BadHeader,
                          "unknown frame type " +
                              std::to_string(rawType));
        return Status::Corrupt;
    }
    if (length > maxFramePayload) {
        poisoned_ = true;
        error = makeError(ErrorCode::BadHeader,
                          "frame payload length " +
                              std::to_string(length) +
                              " exceeds limit");
        return Status::Corrupt;
    }
    if (version >= 3 && length < traceContextBytes) {
        poisoned_ = true;
        error = makeError(ErrorCode::BadHeader,
                          "v3 frame too short for trace context");
        return Status::Corrupt;
    }

    const std::size_t total =
        frameHeaderBytes + length + frameTrailerBytes;
    if (view.size() < total)
        return Status::NeedMore;

    ByteReader body(view.substr(frameHeaderBytes));
    std::string_view payload;
    std::uint32_t pcrc = 0;
    body.bytes(payload, length);
    body.u32(pcrc);
    if (pcrc != crc32(payload.data(), payload.size())) {
        poisoned_ = true;
        error = makeError(ErrorCode::BadChecksum,
                          "frame payload CRC mismatch");
        return Status::Corrupt;
    }

    out.type = static_cast<FrameType>(rawType);
    out.id = id;
    out.trace = obs::TraceContext{};
    if (version >= 3) {
        ByteReader prefix(payload);
        std::uint8_t flags = 0;
        prefix.u64(out.trace.traceId);
        prefix.u64(out.trace.spanId);
        prefix.u8(flags);
        out.trace.sampled = (flags & 1u) != 0;
        if (!out.trace.valid()) {
            poisoned_ = true;
            error = makeError(ErrorCode::BadHeader,
                              "v3 frame with null trace id");
            return Status::Corrupt;
        }
        payload.remove_prefix(traceContextBytes);
    }
    out.payload.assign(payload.data(), payload.size());
    consumed_ += total;
    return Status::Ok;
}

namespace
{

void
putLoadInfo(ByteWriter &w, const LoadInfo &info)
{
    w.u64(info.pc);
    w.u32(static_cast<std::uint32_t>(info.immOffset));
    w.u64(info.ghr);
    w.u64(info.pathHist);
}

bool
getLoadInfo(ByteReader &r, LoadInfo &info)
{
    std::uint32_t imm = 0;
    if (!r.u64(info.pc) || !r.u32(imm) || !r.u64(info.ghr) ||
        !r.u64(info.pathHist))
        return false;
    info.immOffset = static_cast<std::int32_t>(imm);
    return true;
}

void
putPrediction(ByteWriter &w, const Prediction &pred)
{
    // Pack the seven booleans into one flags byte; every other field
    // at full width. A predictor's update() reads all of these, so a
    // lossy encoding here would silently change training behavior.
    std::uint8_t flags = 0;
    flags |= pred.lbHit ? 1u << 0 : 0;
    flags |= pred.hasAddress ? 1u << 1 : 0;
    flags |= pred.speculate ? 1u << 2 : 0;
    flags |= pred.capHasAddr ? 1u << 3 : 0;
    flags |= pred.capSpec ? 1u << 4 : 0;
    flags |= pred.strideHasAddr ? 1u << 5 : 0;
    flags |= pred.strideSpec ? 1u << 6 : 0;
    flags |= pred.lbHandle.valid ? 1u << 7 : 0;
    w.u8(flags);
    w.u8(static_cast<std::uint8_t>(pred.component));
    w.u8(pred.selectorState);
    w.u64(pred.addr);
    w.u64(pred.capAddr);
    w.u64(pred.strideAddr);
    w.u32(pred.lbHandle.slot);
    w.u32(pred.lbHandle.gen);
}

bool
getPrediction(ByteReader &r, Prediction &pred)
{
    std::uint8_t flags = 0, component = 0;
    if (!r.u8(flags) || !r.u8(component) || !r.u8(pred.selectorState) ||
        !r.u64(pred.addr) || !r.u64(pred.capAddr) ||
        !r.u64(pred.strideAddr) || !r.u32(pred.lbHandle.slot) ||
        !r.u32(pred.lbHandle.gen))
        return false;
    if (component > static_cast<std::uint8_t>(Component::Cap))
        return false;
    pred.lbHit = flags & (1u << 0);
    pred.hasAddress = flags & (1u << 1);
    pred.speculate = flags & (1u << 2);
    pred.capHasAddr = flags & (1u << 3);
    pred.capSpec = flags & (1u << 4);
    pred.strideHasAddr = flags & (1u << 5);
    pred.strideSpec = flags & (1u << 6);
    pred.lbHandle.valid = flags & (1u << 7);
    pred.component = static_cast<Component>(component);
    return true;
}

} // namespace

std::string
encodeHello(std::string_view client_name, std::uint16_t version)
{
    ByteWriter w;
    w.u16(version);
    w.str(client_name);
    return w.take();
}

bool
decodeHello(std::string_view payload, std::uint16_t &version,
            std::string &client_name)
{
    ByteReader r(payload);
    return r.u16(version) && r.str(client_name) && r.done();
}

std::string
encodeHelloOk(std::string_view server_name,
              std::uint16_t negotiated_version,
              std::uint64_t clock_epoch_unix_ns)
{
    ByteWriter w;
    w.u16(negotiated_version);
    w.str(server_name);
    // Only a >= v3 peer knows to read the epoch; emitting it to a v2
    // peer would fail its strict whole-payload decode.
    if (negotiated_version >= 3)
        w.u64(clock_epoch_unix_ns);
    return w.take();
}

bool
decodeHelloOk(std::string_view payload, std::uint16_t &version,
              std::string &server_name,
              std::uint64_t &clock_epoch_unix_ns)
{
    ByteReader r(payload);
    clock_epoch_unix_ns = 0;
    if (!r.u16(version) || !r.str(server_name))
        return false;
    if (version >= 3 && !r.u64(clock_epoch_unix_ns))
        return false;
    return r.done();
}

std::string
encodeObsFetch(bool include_timing)
{
    ByteWriter w;
    w.u8(include_timing ? 1 : 0);
    return w.take();
}

bool
decodeObsFetch(std::string_view payload, bool &include_timing)
{
    ByteReader r(payload);
    std::uint8_t flags = 0;
    if (!r.u8(flags) || !r.done())
        return false;
    include_timing = (flags & 1u) != 0;
    return true;
}

std::string
encodePredictRequest(const LoadInfo &info)
{
    ByteWriter w;
    putLoadInfo(w, info);
    return w.take();
}

bool
decodePredictRequest(std::string_view payload, LoadInfo &info)
{
    ByteReader r(payload);
    return getLoadInfo(r, info) && r.done();
}

std::string
encodePredictResponse(std::uint64_t pc, const Prediction &pred)
{
    ByteWriter w;
    w.u64(pc);
    putPrediction(w, pred);
    return w.take();
}

bool
decodePredictResponse(std::string_view payload, std::uint64_t &pc,
                      Prediction &pred)
{
    ByteReader r(payload);
    return r.u64(pc) && getPrediction(r, pred) && r.done();
}

std::string
encodeTrainRequest(const LoadInfo &info, std::uint64_t actual_addr,
                   const Prediction &pred)
{
    ByteWriter w;
    putLoadInfo(w, info);
    w.u64(actual_addr);
    putPrediction(w, pred);
    return w.take();
}

bool
decodeTrainRequest(std::string_view payload, LoadInfo &info,
                   std::uint64_t &actual_addr, Prediction &pred)
{
    ByteReader r(payload);
    return getLoadInfo(r, info) && r.u64(actual_addr) &&
        getPrediction(r, pred) && r.done();
}

std::string
encodeErrorPayload(const Error &error)
{
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(error.code()));
    w.u8(isRetryable(error.code()) ? 1 : 0);
    // Message and contexts travel separately: str() prepends the code
    // name, and wrapping str() as the message would make the receiver
    // render "Code: Code: ..." — the name must appear exactly once.
    w.str(error.message());
    const auto &contexts = error.contexts();
    w.u32(static_cast<std::uint32_t>(contexts.size()));
    for (const std::string &context : contexts)
        w.str(context);
    return w.take();
}

bool
decodeErrorPayload(std::string_view payload, Error &error)
{
    ByteReader r(payload);
    std::uint8_t raw_code = 0, retryable = 0;
    std::string message;
    std::uint32_t contexts = 0;
    if (!r.u8(raw_code) || !r.u8(retryable) || !r.str(message) ||
        !r.u32(contexts))
        return false;
    if (raw_code > static_cast<std::uint8_t>(ErrorCode::DeadlineExceeded))
        return false;
    // Each context costs at least its 4-byte length prefix.
    if (contexts > r.remaining() / 4 + 1)
        return false;
    Error decoded = makeError(static_cast<ErrorCode>(raw_code),
                              std::move(message));
    for (std::uint32_t i = 0; i < contexts; ++i) {
        std::string context;
        if (!r.str(context))
            return false;
        // withContext appends in place; order round-trips exactly.
        (void)std::move(decoded).withContext(std::move(context));
    }
    if (!r.done())
        return false;
    error = std::move(decoded);
    return true;
}

std::string
encodeServiceStats(const ServiceWireStats &stats)
{
    ByteWriter w;
    putPredictionStats(w, stats.aggregate);
    w.u32(static_cast<std::uint32_t>(stats.shards.size()));
    for (const auto &shard : stats.shards) {
        w.u64(shard.predicts);
        w.u64(shard.trains);
        w.u64(shard.rejected);
        w.u64(shard.unavailable);
        w.u64(shard.queueDepth);
        w.u8(shard.quarantined);
        putPredictionStats(w, shard.stats);
    }
    const auto &sup = stats.supervisor;
    w.u64(sup.snapshots);
    w.u64(sup.snapshotFailures);
    w.u64(sup.recoveries);
    w.u64(sup.strictRestores);
    w.u64(sup.salvagedRestores);
    w.u64(sup.freshRestarts);
    w.u64(sup.unrecovered);
    return w.take();
}

bool
decodeServiceStats(std::string_view payload, ServiceWireStats &stats)
{
    ByteReader r(payload);
    std::uint32_t shards = 0;
    if (!getPredictionStats(r, stats.aggregate) || !r.u32(shards))
        return false;
    // 41 bytes of counters + 160 bytes of PredictionStats per shard
    // entry; bound before reserving.
    if (shards > payload.size() / 201 + 1)
        return false;
    stats.shards.clear();
    stats.shards.reserve(shards);
    for (std::uint32_t i = 0; i < shards; ++i) {
        ShardWireStats shard;
        if (!r.u64(shard.predicts) || !r.u64(shard.trains) ||
            !r.u64(shard.rejected) || !r.u64(shard.unavailable) ||
            !r.u64(shard.queueDepth) || !r.u8(shard.quarantined) ||
            !getPredictionStats(r, shard.stats))
            return false;
        stats.shards.push_back(shard);
    }
    auto &sup = stats.supervisor;
    return r.u64(sup.snapshots) && r.u64(sup.snapshotFailures) &&
        r.u64(sup.recoveries) && r.u64(sup.strictRestores) &&
        r.u64(sup.salvagedRestores) && r.u64(sup.freshRestarts) &&
        r.u64(sup.unrecovered) && r.done();
}

std::string
encodeSnapshotRequest(std::uint32_t shard)
{
    ByteWriter w;
    w.u32(shard);
    return w.take();
}

bool
decodeSnapshotRequest(std::string_view payload, std::uint32_t &shard)
{
    ByteReader r(payload);
    return r.u32(shard) && r.done();
}

std::string
encodeSnapshotData(std::uint32_t shard, std::string_view bytes)
{
    ByteWriter w(8 + bytes.size());
    w.u32(shard);
    w.str(bytes);
    return w.take();
}

bool
decodeSnapshotData(std::string_view payload, std::uint32_t &shard,
                   std::string &bytes)
{
    ByteReader r(payload);
    return r.u32(shard) && r.str(bytes) && r.done();
}

std::string
encodeSnapshotInstallOk(std::uint32_t restored, bool salvaged)
{
    ByteWriter w;
    w.u32(restored);
    w.u8(salvaged ? 1 : 0);
    return w.take();
}

bool
decodeSnapshotInstallOk(std::string_view payload,
                        std::uint32_t &restored, bool &salvaged)
{
    ByteReader r(payload);
    std::uint8_t flag = 0;
    if (!r.u32(restored) || !r.u8(flag) || !r.done())
        return false;
    salvaged = flag != 0;
    return true;
}

} // namespace clap::net
