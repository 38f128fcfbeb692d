#ifndef TPR_CKPT_SERIALIZE_H_
#define TPR_CKPT_SERIALIZE_H_

// Low-level binary serialization for checkpoints: an append-only byte
// Writer, a bounds-checked Reader, and helpers for the repo's state
// types (tensors, parameter lists, Adam moments, RNG streams).
//
// The format is little-endian and versioned at the envelope level (see
// checkpoint.h); these primitives never change meaning within a version.
// Every Reader method returns a Status instead of asserting, so a torn
// or corrupt byte stream is always reported to the caller and can never
// crash the loader.

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "nn/autograd.h"
#include "nn/optimizer.h"
#include "nn/tensor.h"
#include "util/rng.h"
#include "util/status.h"

namespace tpr::ckpt {

/// CRC-32 (IEEE 802.3 polynomial, reflected) of a byte range. Used as
/// the checkpoint envelope footer so torn or bit-flipped files are
/// detected before any state is deserialized.
uint32_t Crc32(const void* data, size_t n);

/// Running CRC update for incremental computation (init with 0).
uint32_t Crc32Update(uint32_t crc, const void* data, size_t n);

/// Append-only little-endian byte sink.
class Writer {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof v); }
  void U64(uint64_t v) { Raw(&v, sizeof v); }
  void I32(int32_t v) { Raw(&v, sizeof v); }
  void I64(int64_t v) { Raw(&v, sizeof v); }
  void F32(float v) { Raw(&v, sizeof v); }
  void F64(double v) { Raw(&v, sizeof v); }
  void Str(std::string_view s) {
    U64(s.size());
    Raw(s.data(), s.size());
  }
  void Bytes(const void* data, size_t n) { Raw(data, n); }

  const std::string& bytes() const { return buf_; }
  std::string TakeBytes() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void Raw(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  std::string buf_;
};

/// Bounds-checked little-endian byte source over a borrowed buffer. All
/// reads fail with Status::OutOfRange past the end — truncation is a
/// reported error, never undefined behaviour.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  Status U8(uint8_t* v) { return Raw(v, sizeof *v); }
  Status U32(uint32_t* v) { return Raw(v, sizeof *v); }
  Status U64(uint64_t* v) { return Raw(v, sizeof *v); }
  Status I32(int32_t* v) { return Raw(v, sizeof *v); }
  Status I64(int64_t* v) { return Raw(v, sizeof *v); }
  Status F32(float* v) { return Raw(v, sizeof *v); }
  Status F64(double* v) { return Raw(v, sizeof *v); }
  Status Str(std::string* s);
  Status Bytes(void* out, size_t n) { return Raw(out, n); }

  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  Status Raw(void* out, size_t n) {
    if (n > remaining()) {
      return Status::OutOfRange("checkpoint stream truncated");
    }
    // An empty tensor's data() may be null, and memcpy from or to null
    // is undefined even for zero bytes.
    if (n > 0) std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }
  std::string_view bytes_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// State-type helpers. Write* always succeeds; Read* validates shapes and
// sizes against sane bounds before allocating.
// ---------------------------------------------------------------------------

void WriteTensor(Writer& w, const nn::Tensor& t);
Status ReadTensor(Reader& r, nn::Tensor* out);

/// Parameter values of a module, in Parameters() order.
void WriteParamValues(Writer& w, const std::vector<nn::Var>& params);

/// Restores parameter values in place. The serialized list must match
/// `params` in count and per-tensor shape (a different architecture or
/// config is a FailedPrecondition, not a crash).
Status ReadParamValuesInto(Reader& r, const std::vector<nn::Var>& params);

void WriteTensorList(Writer& w, const std::vector<nn::Tensor>& tensors);
Status ReadTensorList(Reader& r, std::vector<nn::Tensor>* out);

void WriteRng(Writer& w, const Rng& rng);
Status ReadRng(Reader& r, Rng* rng);

void WriteAdamState(Writer& w, const nn::Adam& adam);
Status ReadAdamStateInto(Reader& r, nn::Adam* adam);

}  // namespace tpr::ckpt

#endif  // TPR_CKPT_SERIALIZE_H_
