// Minimal leveled logger.
//
// The simulator installs a time source so log lines carry virtual time.
// Logging is stream-based; the level filter is a runtime knob so tests can
// raise verbosity for a single case. A statement below the level costs one
// branch: SWAP_LOG is a conditional expression, so a disabled statement
// constructs no stream and evaluates none of its `<<` operands. Operands
// must therefore be free of side effects the simulation depends on.

#pragma once

#include <functional>
#include <sstream>
#include <string>
#include <string_view>

namespace swapserve {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarning, kError };

class Logger {
 public:
  static Logger& Global();

  void set_level(LogLevel level) { level_ = level; }
  LogLevel level() const { return level_; }

  // Installed by the simulation so messages are stamped with virtual time.
  // Returns a formatted timestamp like "[  12.500s]".
  using TimestampFn = std::function<std::string()>;
  void set_timestamp_fn(TimestampFn fn) { timestamp_fn_ = std::move(fn); }
  void clear_timestamp_fn() { timestamp_fn_ = nullptr; }

  bool Enabled(LogLevel level) const { return level >= level_; }
  void Write(LogLevel level, std::string_view component,
             std::string_view message);

 private:
  Logger() = default;
  LogLevel level_ = LogLevel::kWarning;
  TimestampFn timestamp_fn_;
};

// One enabled log statement; SWAP_LOG only constructs it past the level
// check. The component view must outlive the statement (a temporary
// string passed to SWAP_LOG does: it lives to the end of the expression).
class LogMessage {
 public:
  LogMessage(LogLevel level, std::string_view component)
      : level_(level), component_(component) {}
  ~LogMessage() {
    Logger::Global().Write(level_, component_, stream_.str());
  }
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::string_view component_;
  std::ostringstream stream_;
};

// Gives both arms of SWAP_LOG's conditional type void. `&` binds looser
// than `<<` and tighter than `?:`, so the whole `<<` chain is its operand.
struct LogVoidify {
  void operator&(const LogMessage&) const {}
};

// Usage: SWAP_LOG(kInfo, "scheduler") << "swap-in " << model;
#define SWAP_LOG(level, component)                                     \
  !::swapserve::Logger::Global().Enabled(::swapserve::LogLevel::level) \
      ? (void)0                                                        \
      : ::swapserve::LogVoidify() &                                    \
            ::swapserve::LogMessage(::swapserve::LogLevel::level,      \
                                    (component))

}  // namespace swapserve
