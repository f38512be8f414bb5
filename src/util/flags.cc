#include "util/flags.h"

#include <cerrno>
#include <cstdlib>

#include "util/string_util.h"

namespace conservation::util {

Status FlagParser::Parse(int argc, const char* const* argv) {
  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      const std::string name = body.substr(0, eq);
      if (name.empty()) {
        return Status::InvalidArgument("malformed flag: " + arg);
      }
      values_[name] = body.substr(eq + 1);
      continue;
    }
    if (body.empty()) {
      return Status::InvalidArgument("malformed flag: " + arg);
    }
    // "--name value" when the next token is not a flag; bare boolean
    // otherwise.
    if (k + 1 < argc && std::string(argv[k + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[k + 1];
      ++k;
    } else {
      values_[body] = "";
    }
  }
  return Status::Ok();
}

Status FlagParser::CheckAllRead() const {
  std::string unknown;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) > 0) continue;
    if (!unknown.empty()) unknown += ", ";
    unknown += "--" + name;
  }
  if (unknown.empty()) return Status::Ok();
  return Status::InvalidArgument("unknown flag(s): " + unknown);
}

std::string FlagParser::GetStringOr(const std::string& name,
                                    const std::string& fallback) const {
  read_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

Result<int64_t> FlagParser::GetIntOr(const std::string& name,
                                     int64_t fallback) const {
  read_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  if (errno != 0 || end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument(
        StrFormat("flag --%s: not an integer: '%s'", name.c_str(),
                  it->second.c_str()));
  }
  return static_cast<int64_t>(value);
}

Result<double> FlagParser::GetDoubleOr(const std::string& name,
                                       double fallback) const {
  read_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  double value = 0.0;
  if (!ParseDouble(it->second, &value)) {
    return Status::InvalidArgument(
        StrFormat("flag --%s: not a number: '%s'", name.c_str(),
                  it->second.c_str()));
  }
  return value;
}

Result<bool> FlagParser::GetBoolOr(const std::string& name,
                                   bool fallback) const {
  read_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& value = it->second;
  if (value.empty() || value == "true" || value == "1" || value == "yes") {
    return true;
  }
  if (value == "false" || value == "0" || value == "no") {
    return false;
  }
  return Status::InvalidArgument(
      StrFormat("flag --%s: not a boolean: '%s'", name.c_str(),
                value.c_str()));
}

}  // namespace conservation::util
