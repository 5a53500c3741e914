// Minimal --flag=value command-line parsing, shared by the benchmark
// binaries and the cea_query tool. Not a general-purpose flags library —
// just enough to parameterize experiment drivers.

#ifndef CEA_COMMON_FLAGS_H_
#define CEA_COMMON_FLAGS_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

namespace cea {

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  uint64_t GetUint(const std::string& name, uint64_t def) const {
    std::string v;
    return Lookup(name, &v) ? std::strtoull(v.c_str(), nullptr, 0) : def;
  }

  double GetDouble(const std::string& name, double def) const {
    std::string v;
    return Lookup(name, &v) ? std::strtod(v.c_str(), nullptr) : def;
  }

  std::string GetString(const std::string& name,
                        const std::string& def) const {
    std::string v;
    return Lookup(name, &v) ? v : def;
  }

  bool Has(const std::string& name) const {
    std::string v;
    return Lookup(name, &v);
  }

  // First argument that is not `--name` or `--name=value` for a name in
  // `known`, or "" when every argument is known.
  std::string FirstUnknown(const std::vector<std::string>& known) const {
    for (const std::string& a : args_) {
      std::string name = a.rfind("--", 0) == 0 ? a.substr(2, a.find('=') - 2)
                                               : std::string();
      if (std::find(known.begin(), known.end(), name) == known.end()) {
        return a;
      }
    }
    return "";
  }

 private:
  bool Lookup(const std::string& name, std::string* value) const {
    std::string prefix = "--" + name + "=";
    for (const std::string& a : args_) {
      if (a.rfind(prefix, 0) == 0) {
        *value = a.substr(prefix.size());
        return true;
      }
      if (a == "--" + name) {
        // assign(1, '1') rather than = "1": GCC 12 reports a false
        // -Wrestrict on assigning a literal to a std::string here.
        value->assign(1, '1');
        return true;
      }
    }
    return false;
  }

  std::vector<std::string> args_;
};

}  // namespace cea

#endif  // CEA_COMMON_FLAGS_H_
