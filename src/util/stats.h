// Statistics helpers used by benchmarks and the metrics subsystem.
//
// Samples keeps every value for exact percentiles; TimeSeries keeps a
// run-length step series for the time-weighted GPU utilization and memory
// means. Both store their data in append-only chunks: chunks 0 and 1 hold
// kFirstChunk elements (TimeSeries: bytes) and each later chunk doubles,
// up to kMaxChunk, so the capacity grows through the same sizes a doubling
// vector would, but growth never copies or frees. A near-empty store costs
// a few hundred bytes; a long one wastes at most one partly filled chunk.
// TimeSeries encodes each run in 1 to 13 bytes (see below); 6 bytes for a
// utilization on a 1 s grid. Samples costs 8 bytes per value until
// a kMaxChunk chunk fills; a full one is then sealed, packed against its
// own dictionary when that is smaller: each distinct bit pattern once,
// and a bit_width(D - 1)-bit code per value for D distinct patterns. The
// simulator is deterministic, so its latencies repeat: a chunk of 300
// distinct values packs to under 2 bytes per value, a chunk of zeros to
// 24 bytes in all. A chunk of more than kMaxDistinct patterns stays raw.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <ranges>
#include <vector>

namespace swapserve {

namespace stats_detail {

// Elements in chunk k of a store whose chunks 0 and 1 hold `first` and
// whose later chunks double up to `cap` (both powers of two): the total
// after chunk k is first << k until a chunk reaches the cap.
constexpr std::size_t ChunkCapacity(std::size_t k, std::size_t first,
                                    std::size_t cap) {
  if (k == 0) return first;
  const auto doublings =
      static_cast<std::size_t>(std::countr_zero(cap / first));
  return k - 1 >= doublings ? cap : first << (k - 1);
}

// Bits per code in a chunk packed against `distinct` bit patterns: 0 for
// one pattern, 1 for two, 9 for 257.
constexpr unsigned CodeWidth(std::size_t distinct) {
  return static_cast<unsigned>(std::bit_width(distinct - 1));
}

// Bytes of a `chunk`-value chunk packed against `distinct` bit patterns:
// the dictionary, then chunk * CodeWidth(distinct) bits of codes in whole
// 64-bit words and one spare word, at least two words in all, so that a
// code (even a 0-bit one) is always read from two words in bounds.
constexpr std::size_t PackedBytes(std::size_t distinct, std::size_t chunk) {
  const std::size_t words = (chunk * CodeWidth(distinct) + 63) / 64 + 1;
  return (distinct + (words < 2 ? 2 : words)) * sizeof(double);
}

// The most distinct patterns a `chunk`-value chunk can pack against and
// still take fewer bytes than its raw doubles.
constexpr std::size_t MaxDistinct(std::size_t chunk) {
  std::size_t distinct = 1;
  while (PackedBytes(distinct + 1, chunk) < chunk * sizeof(double)) {
    ++distinct;
  }
  return distinct;
}

// A Samples chunk. Raw, `data` holds the chunk's doubles. Packed
// (`distinct` > 0), it holds the chunk's distinct bit patterns as doubles
// in first-seen order, then its codes: value i's index in that dictionary
// is CodeWidth(distinct) bits wide and starts at bit i * width of the
// 64-bit code words.
struct SamplesChunk {
  std::unique_ptr<std::byte[]> data;
  std::uint32_t distinct = 0;
};

}  // namespace stats_detail

class Samples;

// Forward iterator over a Samples' values in insertion order. A raw
// chunk's values are read in place; a packed chunk's are its dictionary
// entries, so every reference points at a double the set holds.
class SamplesIterator {
 public:
  using iterator_concept = std::forward_iterator_tag;
  using iterator_category = std::forward_iterator_tag;
  using value_type = double;
  using difference_type = std::ptrdiff_t;
  using pointer = const double*;
  using reference = const double&;

  const double& operator*() const { return *at_; }
  SamplesIterator& operator++();
  SamplesIterator operator++(int) {
    SamplesIterator old = *this;
    ++*this;
    return old;
  }
  friend bool operator==(const SamplesIterator& a, const SamplesIterator& b) {
    return a.left_ == b.left_;
  }

 private:
  friend class Samples;
  // Points at the first value of chunk `index`.
  void Enter(const stats_detail::SamplesChunk* chunk, std::size_t index);
  // The dictionary index of the packed chunk's value at slot pos_: the
  // code's low bits from its word, its high bits (none unless it straddles)
  // from the next, with no branch.
  std::size_t Code() const {
    const std::size_t bit = pos_ * width_;
    const std::uint64_t* word = codes_ + bit / 64;
    const unsigned shift = bit % 64;
    const std::uint64_t code =
        (word[0] >> shift) | ((word[1] << 1) << (63 - shift));
    return code & ((std::uint64_t{1} << width_) - 1);
  }

  const stats_detail::SamplesChunk* chunk_ = nullptr;
  std::size_t index_ = 0;       // chunk_'s position in the chunk list
  const double* at_ = nullptr;  // the current value
  const double* base_ = nullptr;  // the raw values, or the dictionary
  const std::uint64_t* codes_ = nullptr;  // null in a raw chunk
  unsigned width_ = 0;   // bits per code
  std::size_t pos_ = 0;  // at_'s slot in the chunk
  std::size_t size_ = 0;  // slots in the chunk
  std::size_t left_ = 0;  // values from at_ to the end, at_ included
};

// Exact-percentile sample set. Adding a value writes it at the end of the
// last chunk; the first Add past a full kMaxChunk chunk seals it. Sealing
// costs one allocation, as a new chunk does: a packed chunk allocates its
// block and hands its raw buffer on as the next chunk, and a chunk that
// stays raw leaves a new one to be allocated. The seal's working memory (a
// hash table, the dictionary and the codes, about 50 KiB) is on the stack,
// and it gives up once the dictionary passes kMaxDistinct. A percentile
// query finds the two order statistics it interpolates by radix select
// over the values in place: O(n) per query, no sorted copy, no cache and
// no allocation.
class Samples {
 public:
  static constexpr std::size_t kFirstChunk = 16;
  static constexpr std::size_t kMaxChunk = 4096;  // 32 KiB of doubles
  // 3326: with 12-bit codes, 3327 patterns take 32 KiB packed.
  static constexpr std::size_t kMaxDistinct =
      stats_detail::MaxDistinct(kMaxChunk);

  Samples() = default;
  // A moved-from set is empty.
  Samples(Samples&& other) noexcept;

  // Aborts on NaN, which has no rank.
  void Add(double x);

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double mean() const;
  double min() const;
  double max() const;
  double stddev() const;

  // q in [0, 1]; linear interpolation between closest ranks, the values a
  // sorted copy would hold at those ranks (+0.0 and -0.0 rank as equal).
  double Percentile(double q) const;
  double Median() const { return Percentile(0.5); }
  double P99() const { return Percentile(0.99); }

  // The values in insertion order, bit for bit, as a forward range.
  std::ranges::subrange<SamplesIterator> values() const;

 private:
  friend class SamplesIterator;
  using Chunk = stats_detail::SamplesChunk;
  static constexpr std::size_t ChunkCapacity(std::size_t k) {
    return stats_detail::ChunkCapacity(k, kFirstChunk, kMaxChunk);
  }
  // Appends a chunk, sealing the last one first if it is a full kMaxChunk.
  void Grow();
  // Packs the full last chunk if that takes fewer bytes and returns its
  // raw buffer; returns null, leaving the chunk raw, otherwise.
  std::unique_ptr<std::byte[]> Seal();
  struct Rank;
  Rank Select(std::size_t k) const;
  double Above(std::uint64_t key) const;

  std::vector<Chunk> chunks_;
  double* tail_ = nullptr;      // next free slot of the last chunk
  double* tail_end_ = nullptr;  // end of the last chunk
  std::size_t count_ = 0;
};

inline void SamplesIterator::Enter(const stats_detail::SamplesChunk* chunk,
                                   std::size_t index) {
  chunk_ = chunk;
  index_ = index;
  pos_ = 0;
  size_ = Samples::ChunkCapacity(index);
  base_ = reinterpret_cast<const double*>(chunk->data.get());
  if (chunk->distinct == 0) {
    codes_ = nullptr;
    width_ = 0;
    at_ = base_;
  } else {
    codes_ = reinterpret_cast<const std::uint64_t*>(base_ + chunk->distinct);
    width_ = stats_detail::CodeWidth(chunk->distinct);
    at_ = base_ + Code();
  }
}

inline SamplesIterator& SamplesIterator::operator++() {
  if (--left_ == 0) return *this;
  if (++pos_ == size_) {
    Enter(chunk_ + 1, index_ + 1);
  } else if (codes_ == nullptr) {
    ++at_;
  } else {
    at_ = base_ + Code();
  }
  return *this;
}

// Step series sampled on a fixed grid, used for GPU utilization and memory
// traces (Fig. 3). Sample instants are integer nanoseconds, reported in
// seconds as ns / 1e9 (what sim::SimTime::ToSeconds() returns), and a value
// holds until the next sample. Storage is run-length: a run is `count`
// consecutive grid samples of one value, `interval_ns` apart, so an idle
// stretch of any length costs one run; instants are implicit. A segment is
// a stretch of runs that each start where the previous one ends, and only
// its first instant is stored. A new run starts when the value changes or
// the count would pass 2^32 - 1; a new segment starts when a sample lands
// off the grid (a monitor restart re-anchors it).
//
// A run is stored at the size of what it holds. The last run stays a plain
// value and count, so Append can extend it; a completed run is appended to
// a byte stream as the varint (7 bits a byte, low bits first) of
// (count - 1) << 2 | kind, then its payload:
//   - kind says what the value is: +0.0, 1.0, a grid fraction, or raw; the
//     varint is 1 byte for a count of 1 to 32 and 2 bytes up to 4096;
//   - a grid fraction is v = k / interval_ns for an integer |k| < 2^53, and
//     is stored as the zigzag varint of k. It qualifies only when
//     double(k) / double(interval_ns) gives back v's exact bits, so a
//     busy-ns / interval-ns utilization on a 1 s grid takes 5 bytes;
//   - every other value is stored raw, as its 8 bytes (-0.0, NaN payloads,
//     infinities and denormals included), so every value round-trips bit
//     for bit.
// A utilization run thus costs 1 byte (idle or saturated, up to 32
// samples), 6 bytes (a fraction on a 1 s grid) or 9 bytes (raw), against
// 12 for a double and a 32-bit count. The stream lives in byte chunks that
// double from kFirstChunk to kMaxChunk bytes and are never copied; a run
// never straddles two chunks, so a chunk with fewer than kMaxRunBytes left
// is closed and the next run starts the next chunk.
class TimeSeries {
 public:
  static constexpr std::size_t kFirstChunk = 256;     // bytes
  static constexpr std::size_t kMaxChunk = 16 * 1024;  // bytes
  static constexpr std::size_t kMaxRunCount = UINT32_MAX;

  explicit TimeSeries(std::int64_t interval_ns);
  // A moved-from series is empty, on the same grid.
  TimeSeries(TimeSeries&& other) noexcept;

  // Append `count` samples of `value` at at_ns, at_ns + interval, ...;
  // at_ns must lie after the last sample.
  void Append(std::int64_t at_ns, double value, std::size_t count = 1);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t runs() const { return runs_; }

  struct Point {
    double time_s;
    double value;
  };
  // Every sample, expanded (tests and dumps; O(size)).
  std::vector<Point> Points() const;

  // Time-weighted average over [t0, t1] assuming the value holds until the
  // next sample (step function). Walks the samples one by one in time
  // order, so the sums are those of the same series stored point by
  // point; samples that end by t0 add nothing and are skipped. Returns 0
  // for an empty series.
  double TimeWeightedMean(double t0, double t1) const;

  double MaxValue() const;

 private:
  // The longest encoded run: a 5-byte varint of a 2^32 - 1 count and its
  // kind, and an 8-byte raw value (or an 8-byte varint of k).
  static constexpr std::size_t kMaxRunBytes = 13;
  static constexpr std::size_t ChunkCapacity(std::size_t k) {
    return stats_detail::ChunkCapacity(k, kFirstChunk, kMaxChunk);
  }
  // Calls fn(first_ns, count, value, after_ns, last) on each run in time
  // order, where after_ns is the first instant of the next run (0 for the
  // last run, whose `last` is true); stops when fn returns false.
  template <class Fn>
  void ForEachRun(Fn&& fn) const;
  // Encodes the last run into the stream and makes (value, count) the last.
  void PushRun(double value, std::uint32_t count);

  struct Segment {
    std::int64_t anchor_ns;  // the first run's first instant
    std::size_t first_run;
  };
  std::int64_t interval_ns_;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::vector<Segment> segments_;
  std::byte* tail_ = nullptr;   // next free byte of the last chunk
  std::size_t chunk_left_ = 0;  // free bytes in the last chunk
  double last_value_ = 0.0;     // the last run, not yet encoded
  std::uint32_t last_count_ = 0;
  std::size_t runs_ = 0;
  std::size_t size_ = 0;
  std::int64_t next_ns_ = 0;  // the grid instant after the last sample
};

}  // namespace swapserve
