// Minimal command-line flag parsing for the tools and bench binaries.
//
// Supports "--name=value" and "--name value" forms, plus bare boolean
// "--name". Non-flag arguments are collected as positionals. No global
// registry — a FlagParser is built per main(). The parser remembers every
// name a getter (or Has) asked about, so a tool can reject flags it never
// reads: call CheckAllRead() once every flag of the run has been read.

#ifndef CONSERVATION_UTIL_FLAGS_H_
#define CONSERVATION_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/status.h"

namespace conservation::util {

class FlagParser {
 public:
  // Parses argv; returns an error for malformed input ("--=x").
  Status Parse(int argc, const char* const* argv);

  bool Has(const std::string& name) const {
    read_.insert(name);
    return values_.count(name) > 0;
  }

  // Typed getters with defaults; Get*Or returns the fallback when the flag
  // is absent, and an error only when present but unparseable.
  std::string GetStringOr(const std::string& name,
                          const std::string& fallback) const;
  Result<int64_t> GetIntOr(const std::string& name, int64_t fallback) const;
  Result<double> GetDoubleOr(const std::string& name, double fallback) const;
  // Bare "--name" and "--name=true/1/yes" are true; "=false/0/no" false.
  Result<bool> GetBoolOr(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positionals() const { return positionals_; }

  // InvalidArgument naming every flag given on the command line that no
  // getter or Has() has asked about; Ok when there is none.
  Status CheckAllRead() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
  mutable std::set<std::string> read_;
};

}  // namespace conservation::util

#endif  // CONSERVATION_UTIL_FLAGS_H_
