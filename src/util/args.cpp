#include "util/args.hpp"

#include <cstdlib>
#include <sstream>

#include "util/error.hpp"

namespace tealeaf {

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--key value` if the next token is not itself an option; else a flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[i + 1];
      ++i;
    } else {
      values_[arg] = "";
    }
  }
}

bool Args::has(const std::string& name) const {
  return values_.count(name) > 0;
}

void Args::reject_retired(std::initializer_list<const char*> names) const {
  for (const char* name : names) {
    if (!has(name)) continue;
    throw TeaError(std::string("--") + name +
                   " was retired: every solve runs the one team engine, "
                   "which derives its row-blocks from the thread team and "
                   "rank count — remove the flag");
  }
}

std::string Args::get(const std::string& name,
                      const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

int Args::get_int(const std::string& name, int fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return fallback;
  return std::atoi(it->second.c_str());
}

double Args::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return fallback;
  return std::atof(it->second.c_str());
}

bool Args::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  if (it->second.empty()) return true;  // bare flag
  return it->second == "1" || it->second == "true" || it->second == "yes" ||
         it->second == "on";
}

std::vector<std::string> split_list(const std::string& value,
                                    const std::string& context) {
  std::vector<std::string> items;
  std::string item;
  std::istringstream in(value);
  while (std::getline(in, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  TEA_REQUIRE(!items.empty(), "empty list for " + context);
  return items;
}

std::vector<int> split_int_list(const std::string& value,
                                const std::string& context) {
  std::vector<int> items;
  for (const std::string& s : split_list(value, context)) {
    std::size_t used = 0;
    double v = 0.0;
    try {
      v = std::stod(s, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != s.size()) {
      throw TeaError("bad numeric value for " + context + ": '" + s + "'");
    }
    items.push_back(static_cast<int>(v));
  }
  return items;
}

}  // namespace tealeaf
