#include "ckpt/serialize.h"

#include <array>
#include <limits>

namespace tpr::ckpt {
namespace {

// Serialized tensors larger than this are rejected by the reader before
// allocation. Far above any model in this repo (the full paper-scale
// encoder is < 1M scalars); its only job is to keep a corrupt size field
// from triggering a multi-gigabyte allocation.
constexpr uint64_t kMaxTensorElements = 64ull * 1024 * 1024;
constexpr uint64_t kMaxListEntries = 1ull * 1024 * 1024;

// Slicing-by-8 tables for the reflected IEEE polynomial: t[0] is the
// bytewise table, and t[k][b] is the CRC of byte b followed by k zero
// bytes, so eight table lookups advance the CRC by eight bytes.
const std::array<std::array<uint32_t, 256>, 8>& CrcTables() {
  static const auto tables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* data, size_t n) {
  const auto& t = CrcTables();
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (; n >= 8; n -= 8, p += 8) {
    // Bytes assembled explicitly, so the loop is endian-independent.
    const uint32_t lo = crc ^ (uint32_t{p[0]} | uint32_t{p[1]} << 8 |
                               uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; --n, ++p) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

uint32_t Crc32(const void* data, size_t n) {
  return Crc32Update(0, data, n);
}

Status Reader::Str(std::string* s) {
  uint64_t len = 0;
  TPR_RETURN_IF_ERROR(U64(&len));
  if (len > remaining()) {
    return Status::OutOfRange("checkpoint string length exceeds stream");
  }
  s->assign(bytes_.data() + pos_, len);
  pos_ += len;
  return Status::OK();
}

void WriteTensor(Writer& w, const nn::Tensor& t) {
  w.I32(t.rows());
  w.I32(t.cols());
  w.Bytes(t.data(), t.size() * sizeof(float));
}

Status ReadTensor(Reader& r, nn::Tensor* out) {
  int32_t rows = 0, cols = 0;
  TPR_RETURN_IF_ERROR(r.I32(&rows));
  TPR_RETURN_IF_ERROR(r.I32(&cols));
  if (rows < 0 || cols < 0) {
    return Status::OutOfRange("checkpoint tensor has negative shape");
  }
  const uint64_t n = static_cast<uint64_t>(rows) * static_cast<uint64_t>(cols);
  if (n > kMaxTensorElements || n * sizeof(float) > r.remaining()) {
    return Status::OutOfRange("checkpoint tensor size exceeds stream");
  }
  nn::Tensor t(rows, cols);
  TPR_RETURN_IF_ERROR(
      r.Bytes(t.data(), static_cast<size_t>(n) * sizeof(float)));
  *out = std::move(t);
  return Status::OK();
}

void WriteParamValues(Writer& w, const std::vector<nn::Var>& params) {
  w.U32(static_cast<uint32_t>(params.size()));
  for (const auto& p : params) WriteTensor(w, p.value());
}

Status ReadParamValuesInto(Reader& r, const std::vector<nn::Var>& params) {
  uint32_t count = 0;
  TPR_RETURN_IF_ERROR(r.U32(&count));
  if (count != params.size()) {
    return Status::FailedPrecondition(
        "checkpoint parameter count mismatch: stored " +
        std::to_string(count) + ", model has " +
        std::to_string(params.size()));
  }
  for (const auto& p : params) {
    nn::Tensor t;
    TPR_RETURN_IF_ERROR(ReadTensor(r, &t));
    if (!t.SameShape(p.value())) {
      return Status::FailedPrecondition(
          "checkpoint parameter shape mismatch: stored " +
          std::to_string(t.rows()) + "x" + std::to_string(t.cols()) +
          ", model expects " + std::to_string(p.value().rows()) + "x" +
          std::to_string(p.value().cols()));
    }
    const_cast<nn::Var&>(p).mutable_value() = std::move(t);
  }
  return Status::OK();
}

void WriteTensorList(Writer& w, const std::vector<nn::Tensor>& tensors) {
  w.U32(static_cast<uint32_t>(tensors.size()));
  for (const auto& t : tensors) WriteTensor(w, t);
}

Status ReadTensorList(Reader& r, std::vector<nn::Tensor>* out) {
  uint32_t count = 0;
  TPR_RETURN_IF_ERROR(r.U32(&count));
  if (count > kMaxListEntries) {
    return Status::OutOfRange("checkpoint tensor list too long");
  }
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    nn::Tensor t;
    TPR_RETURN_IF_ERROR(ReadTensor(r, &t));
    out->push_back(std::move(t));
  }
  return Status::OK();
}

void WriteRng(Writer& w, const Rng& rng) {
  for (uint64_t word : rng.Serialize()) w.U64(word);
}

Status ReadRng(Reader& r, Rng* rng) {
  std::array<uint64_t, 4> state{};
  for (auto& word : state) TPR_RETURN_IF_ERROR(r.U64(&word));
  rng->Restore(state);
  return Status::OK();
}

void WriteAdamState(Writer& w, const nn::Adam& adam) {
  const nn::AdamState state = adam.ExportState();
  w.I32(state.t);
  WriteTensorList(w, state.m);
  WriteTensorList(w, state.v);
}

Status ReadAdamStateInto(Reader& r, nn::Adam* adam) {
  nn::AdamState state;
  TPR_RETURN_IF_ERROR(r.I32(&state.t));
  TPR_RETURN_IF_ERROR(ReadTensorList(r, &state.m));
  TPR_RETURN_IF_ERROR(ReadTensorList(r, &state.v));
  return adam->ImportState(std::move(state));
}

}  // namespace tpr::ckpt
