#include "util/stats.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <optional>
#include <ranges>
#include <utility>

#include "util/status.h"

namespace swapserve {

namespace {

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

// Order-preserving key of a non-NaN double: a < b iff Key(a) < Key(b), and
// +0.0 and -0.0 share the key of +0.0.
std::uint64_t Key(double x) {
  const std::uint64_t bits = x == 0.0 ? 0 : std::bit_cast<std::uint64_t>(x);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

double FromKey(std::uint64_t key) {
  return std::bit_cast<double>((key & kSignBit) != 0 ? key ^ kSignBit : ~key);
}

const double* Doubles(const std::byte* data) {
  return reinterpret_cast<const double*>(data);
}

}  // namespace

Samples::Samples(Samples&& other) noexcept
    : chunks_(std::exchange(other.chunks_, {})),
      tail_(std::exchange(other.tail_, nullptr)),
      tail_end_(std::exchange(other.tail_end_, nullptr)),
      count_(std::exchange(other.count_, 0)) {}

void Samples::Add(double x) {
  SWAP_CHECK_MSG(!std::isnan(x), "Samples::Add: NaN has no rank");
  if (tail_ == tail_end_) Grow();
  *tail_++ = x;
  ++count_;
}

void Samples::Grow() {
  const std::size_t capacity = ChunkCapacity(chunks_.size());
  std::unique_ptr<std::byte[]> buffer;
  if (!chunks_.empty() && ChunkCapacity(chunks_.size() - 1) == kMaxChunk) {
    buffer = Seal();
  }
  if (buffer == nullptr) {
    buffer = std::make_unique_for_overwrite<std::byte[]>(capacity *
                                                         sizeof(double));
  }
  tail_ = reinterpret_cast<double*>(buffer.get());
  tail_end_ = tail_ + capacity;
  chunks_.push_back({std::move(buffer), 0});
}

std::unique_ptr<std::byte[]> Samples::Seal() {
  // Open addressing, linear probing: a slot holds a dictionary index + 1
  // (0 is free), and the table stays at most half full.
  constexpr int kTableBits = 13;
  static_assert(2 * kMaxDistinct <= std::size_t{1} << kTableBits);
  constexpr std::size_t kTableMask = (std::size_t{1} << kTableBits) - 1;
  std::array<std::uint16_t, std::size_t{1} << kTableBits> table{};
  std::array<std::uint64_t, kMaxDistinct> dictionary{};
  std::array<std::uint16_t, kMaxChunk> codes{};
  std::size_t distinct = 0;
  Chunk& chunk = chunks_.back();
  const double* values = Doubles(chunk.data.get());
  // Keyed by bit pattern, so -0.0 is not +0.0. A run of one pattern (most
  // swap waits are 0) skips the table.
  std::uint64_t last = ~std::bit_cast<std::uint64_t>(values[0]);
  std::uint16_t last_code = 0;
  for (std::size_t i = 0; i < kMaxChunk; ++i) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(values[i]);
    if (bits != last) {
      std::size_t slot = (bits * 0x9E3779B97F4A7C15) >> (64 - kTableBits);
      while (table[slot] != 0 && dictionary[table[slot] - 1] != bits) {
        slot = (slot + 1) & kTableMask;
      }
      if (table[slot] == 0) {
        // Past kMaxDistinct, packing cannot pay.
        if (distinct == kMaxDistinct) return nullptr;
        dictionary[distinct] = bits;
        table[slot] = static_cast<std::uint16_t>(++distinct);
      }
      last = bits;
      last_code = static_cast<std::uint16_t>(table[slot] - 1);
    }
    codes[i] = last_code;
  }
  const unsigned width = stats_detail::CodeWidth(distinct);
  const std::size_t bytes = stats_detail::PackedBytes(distinct, kMaxChunk);
  auto packed = std::make_unique_for_overwrite<std::byte[]>(bytes);
  std::memcpy(packed.get(), dictionary.data(), distinct * sizeof(double));
  // Codes fill each word from its low bits; one that straddles leaves its
  // high bits at the bottom of the next word, where
  // SamplesIterator::Code reads them. The codes fill whole words, and the
  // spare words after them stay 0.
  auto* word = reinterpret_cast<std::uint64_t*>(packed.get() +
                                                distinct * sizeof(double));
  std::memset(word, 0, bytes - distinct * sizeof(double));
  std::uint64_t pending = 0;
  unsigned filled = 0;
  for (const std::uint16_t code : codes) {
    pending |= std::uint64_t{code} << filled;
    filled += width;
    if (filled >= 64) {
      *word++ = pending;
      filled -= 64;
      pending = std::uint64_t{code} >> (width - filled);
    }
  }
  chunk.distinct = static_cast<std::uint32_t>(distinct);
  return std::exchange(chunk.data, std::move(packed));
}

std::ranges::subrange<SamplesIterator> Samples::values() const {
  SamplesIterator first;
  if (count_ != 0) {
    first.Enter(chunks_.data(), 0);
    first.left_ = count_;
  }
  return {first, SamplesIterator()};
}

double Samples::mean() const {
  if (count_ == 0) return 0.0;
  double sum = 0.0;
  for (double v : values()) sum += v;
  return sum / static_cast<double>(count_);
}

double Samples::min() const {
  if (count_ == 0) return 0.0;
  return *std::ranges::min_element(values());
}

double Samples::max() const {
  if (count_ == 0) return 0.0;
  return *std::ranges::max_element(values());
}

double Samples::stddev() const {
  if (count_ < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double v : values()) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(count_));
}

// The k-th smallest key (0-based), and how many keys lie below it and
// equal it.
struct Samples::Rank {
  std::uint64_t key;
  std::size_t below;
  std::size_t equal;
};

// Radix select, most significant digit first: each pass counts the keys
// that share the digits fixed so far by their next digit, and fixes the
// digit whose bucket holds rank k. The histogram lives on the stack.
Samples::Rank Samples::Select(std::size_t k) const {
  constexpr int kDigitBits = 11;
  std::array<std::size_t, std::size_t{1} << kDigitBits> hist;
  std::uint64_t prefix = 0;
  std::uint64_t mask = 0;
  std::size_t below = 0;
  std::size_t in_bucket = count_;
  for (int high = 64; high > 0;) {
    const int width = std::min(kDigitBits, high);
    const int shift = high - width;
    const std::uint64_t digit_mask = (std::uint64_t{1} << width) - 1;
    hist.fill(0);
    for (double v : values()) {
      const std::uint64_t key = Key(v);
      if ((key & mask) == prefix) ++hist[(key >> shift) & digit_mask];
    }
    std::uint64_t digit = 0;
    while (below + hist[digit] <= k) below += hist[digit++];
    in_bucket = hist[digit];
    prefix |= digit << shift;
    mask |= digit_mask << shift;
    high = shift;
  }
  return {prefix, below, in_bucket};
}

// The smallest key above `key`, as a value; one pass.
double Samples::Above(std::uint64_t key) const {
  std::uint64_t best = UINT64_MAX;
  for (double v : values()) {
    const std::uint64_t other = Key(v);
    if (other > key && other < best) best = other;
  }
  return FromKey(best);
}

double Samples::Percentile(double q) const {
  SWAP_CHECK_MSG(q >= 0.0 && q <= 1.0, "percentile out of range");
  if (count_ == 0) return 0.0;
  if (count_ == 1) return Doubles(chunks_.front().data.get())[0];
  const double rank = q * static_cast<double>(count_ - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, count_ - 1);
  const double frac = rank - static_cast<double>(lo);
  const Rank at = Select(lo);
  const double lo_value = FromKey(at.key);
  const double hi_value =
      hi < at.below + at.equal ? lo_value : Above(at.key);
  return lo_value + frac * (hi_value - lo_value);
}

namespace {

double NsToSeconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

// A run's value kinds, the low 2 bits of its first varint.
enum RunKind : std::uint8_t { kZero, kOne, kGrid, kRaw };

std::byte* PutVarint(std::byte* out, std::uint64_t v) {
  for (; v >= 0x80; v >>= 7) {
    *out++ = static_cast<std::byte>(v | 0x80);
  }
  *out++ = static_cast<std::byte>(v);
  return out;
}

const std::byte* GetVarint(const std::byte* in, std::uint64_t& v) {
  v = 0;
  for (unsigned shift = 0;; shift += 7) {
    const auto b = static_cast<std::uint64_t>(*in++);
    v |= (b & 0x7f) << shift;
    if (b < 0x80) return in;
  }
}

// The k of a grid fraction v = k / interval_ns, if v is one: |k| < 2^53
// and the division gives back v's exact bits. (A double below 2^53 rounds
// to an integer below it: doubles from 2^52 on are integers.)
std::optional<std::int64_t> GridNumerator(double v, double interval_ns) {
  const double scaled = v * interval_ns;
  if (!(std::abs(scaled) < 0x1p53)) return std::nullopt;  // NaN, inf, huge
  const std::int64_t k = std::llround(scaled);
  if (std::bit_cast<std::uint64_t>(static_cast<double>(k) / interval_ns) !=
      std::bit_cast<std::uint64_t>(v)) {
    return std::nullopt;
  }
  return k;
}

// Writes one run (the varint of count - 1 and kind, then the payload) at
// `out`, which has at least kMaxRunBytes free; returns the end.
std::byte* EncodeRun(std::byte* out, double value, std::uint32_t count,
                     double interval_ns) {
  std::optional<std::int64_t> k;
  RunKind kind = kRaw;
  if (std::bit_cast<std::uint64_t>(value) == 0) {
    kind = kZero;
  } else if (value == 1.0) {
    kind = kOne;
  } else if ((k = GridNumerator(value, interval_ns))) {
    kind = kGrid;
  }
  out = PutVarint(out, std::uint64_t{count - 1} << 2 | kind);
  if (kind == kGrid) {
    // Zigzag: small magnitudes of either sign take few bytes.
    out = PutVarint(out, (static_cast<std::uint64_t>(*k) << 1) ^
                             static_cast<std::uint64_t>(*k >> 63));
  } else if (kind == kRaw) {
    std::memcpy(out, &value, sizeof value);
    out += sizeof value;
  }
  return out;
}

// Reads the run EncodeRun wrote at `in`; returns its end.
const std::byte* DecodeRun(const std::byte* in, double interval_ns,
                           double& value, std::uint32_t& count) {
  std::uint64_t head = 0;
  in = GetVarint(in, head);
  count = static_cast<std::uint32_t>(head >> 2) + 1;
  switch (head & 3) {
    case kZero:
      value = 0.0;
      break;
    case kOne:
      value = 1.0;
      break;
    case kGrid: {
      std::uint64_t zigzag = 0;
      in = GetVarint(in, zigzag);
      const auto k = static_cast<std::int64_t>(zigzag >> 1) ^
                     -static_cast<std::int64_t>(zigzag & 1);
      value = static_cast<double>(k) / interval_ns;
      break;
    }
    default:
      std::memcpy(&value, in, sizeof value);
      in += sizeof value;
  }
  return in;
}

}  // namespace

TimeSeries::TimeSeries(std::int64_t interval_ns) : interval_ns_(interval_ns) {
  SWAP_CHECK_MSG(interval_ns_ > 0, "TimeSeries interval must be positive");
}

TimeSeries::TimeSeries(TimeSeries&& other) noexcept
    : interval_ns_(other.interval_ns_),
      chunks_(std::exchange(other.chunks_, {})),
      segments_(std::exchange(other.segments_, {})),
      tail_(std::exchange(other.tail_, nullptr)),
      chunk_left_(std::exchange(other.chunk_left_, 0)),
      last_value_(std::exchange(other.last_value_, 0.0)),
      last_count_(std::exchange(other.last_count_, 0)),
      runs_(std::exchange(other.runs_, 0)),
      size_(std::exchange(other.size_, 0)),
      next_ns_(std::exchange(other.next_ns_, 0)) {}

void TimeSeries::PushRun(double value, std::uint32_t count) {
  // Chunk 0 comes with the first run, though that run stays unencoded.
  if (chunk_left_ < kMaxRunBytes) {
    const std::size_t capacity = ChunkCapacity(chunks_.size());
    chunks_.emplace_back(new std::byte[capacity]);
    tail_ = chunks_.back().get();
    chunk_left_ = capacity;
  }
  if (runs_ > 0) {
    std::byte* end = EncodeRun(tail_, last_value_, last_count_,
                               static_cast<double>(interval_ns_));
    chunk_left_ -= static_cast<std::size_t>(end - tail_);
    tail_ = end;
  }
  last_value_ = value;
  last_count_ = count;
  ++runs_;
}

void TimeSeries::Append(std::int64_t at_ns, double value, std::size_t count) {
  if (count == 0) return;
  const std::int64_t next_ns =
      at_ns + static_cast<std::int64_t>(count) * interval_ns_;
  size_ += count;
  if (runs_ == 0 || at_ns != next_ns_) {
    SWAP_CHECK_MSG(runs_ == 0 || at_ns > next_ns_ - interval_ns_,
                   "TimeSeries samples must be appended in time order");
    segments_.push_back({at_ns, runs_});
  } else if (std::bit_cast<std::uint64_t>(value) ==
             std::bit_cast<std::uint64_t>(last_value_)) {
    const std::size_t extend =
        std::min<std::size_t>(count, kMaxRunCount - last_count_);
    last_count_ += static_cast<std::uint32_t>(extend);
    count -= extend;
  }
  for (; count > 0;) {
    const std::size_t run = std::min(count, kMaxRunCount);
    PushRun(value, static_cast<std::uint32_t>(run));
    count -= run;
  }
  next_ns_ = next_ns;
}

template <class Fn>
void TimeSeries::ForEachRun(Fn&& fn) const {
  const auto interval = static_cast<double>(interval_ns_);
  std::size_t chunk = 0;
  const std::byte* at = runs_ > 0 ? chunks_[0].get() : nullptr;
  std::size_t left = ChunkCapacity(0);  // bytes from `at` to the chunk end
  std::size_t r = 0;
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    const bool more_segments = s + 1 < segments_.size();
    const std::size_t end = more_segments ? segments_[s + 1].first_run : runs_;
    std::int64_t first_ns = segments_[s].anchor_ns;
    for (; r < end; ++r) {
      const bool last = r + 1 == end && !more_segments;
      double value = last_value_;
      std::uint32_t count = last_count_;
      if (!last) {
        if (left < kMaxRunBytes) {
          at = chunks_[++chunk].get();
          left = ChunkCapacity(chunk);
        }
        const std::byte* next = DecodeRun(at, interval, value, count);
        left -= static_cast<std::size_t>(next - at);
        at = next;
      }
      const std::int64_t after_ns =
          first_ns + static_cast<std::int64_t>(count) * interval_ns_;
      if (!fn(first_ns, count, value,
              r + 1 < end ? after_ns : last ? 0 : segments_[s + 1].anchor_ns,
              last)) {
        return;
      }
      first_ns = after_ns;
    }
  }
}

std::vector<TimeSeries::Point> TimeSeries::Points() const {
  std::vector<Point> out;
  out.reserve(size_);
  ForEachRun([&](std::int64_t first_ns, std::uint32_t count, double value,
                 std::int64_t, bool) {
    for (std::uint32_t j = 0; j < count; ++j) {
      out.push_back(
          {NsToSeconds(first_ns + static_cast<std::int64_t>(j) * interval_ns_),
           value});
    }
    return true;
  });
  return out;
}

double TimeSeries::TimeWeightedMean(double t0, double t1) const {
  if (runs_ == 0 || t1 <= t0) return 0.0;
  double acc = 0.0;
  double covered = 0.0;
  ForEachRun([&](std::int64_t first_ns, std::uint32_t count, double value,
                 std::int64_t after_ns, bool last) {
    const auto at = [&](std::size_t j) {
      return NsToSeconds(first_ns +
                         static_cast<std::int64_t>(j) * interval_ns_);
    };
    // The end of the run's last sample.
    const double run_end = last ? t1 : NsToSeconds(after_ns);
    if (run_end <= t0) return true;
    // Start at the first sample that ends after t0.
    std::size_t j = *std::ranges::partition_point(
        std::views::iota(std::size_t{0}, std::size_t{count} - 1),
        [&](std::size_t i) { return at(i + 1) <= t0; });
    // Samples at or after t1 contribute nothing, so the walk stops there.
    for (double time = at(j); j < count; ++j) {
      if (time >= t1) return false;
      const double next = j + 1 < count ? at(j + 1) : run_end;
      const double start = std::max(time, t0);
      const double end = std::min(next, t1);
      if (end > start) {
        acc += value * (end - start);
        covered += end - start;
      }
      time = next;
    }
    return true;
  });
  return covered > 0 ? acc / covered : 0.0;
}

double TimeSeries::MaxValue() const {
  double m = 0.0;
  ForEachRun([&](std::int64_t, std::uint32_t, double value, std::int64_t,
                 bool) {
    m = std::max(m, value);
    return true;
  });
  return m;
}

}  // namespace swapserve
