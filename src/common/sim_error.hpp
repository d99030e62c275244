// Structured, throwing failure types. NC_ASSERT/NC_FATAL abort (invariant
// violations — the process state is suspect); SimError is the recoverable
// variant for failures the caller can handle cleanly: bad configuration,
// malformed CLI input, and diagnosed simulation failures (deadlock, watchdog
// trips). CLI drivers catch it, print what(), and exit nonzero.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>

namespace netcache {

class SimError : public std::runtime_error {
 public:
  explicit SimError(const std::string& message)
      : std::runtime_error(message) {}
};

/// A configuration rejection carrying the offending key and value, so
/// drivers and tests can report exactly which knob was wrong.
class ConfigError : public SimError {
 public:
  ConfigError(std::string key, std::string value, const std::string& why)
      : SimError("config error: " + key + " = " + value + " — " + why),
        key_(std::move(key)),
        value_(std::move(value)),
        why_(why) {}

  const std::string& key() const { return key_; }
  const std::string& value() const { return value_; }
  const std::string& why() const { return why_; }

 private:
  std::string key_;
  std::string value_;
  std::string why_;
};

}  // namespace netcache
