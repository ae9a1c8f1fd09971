#include "common/cli.h"

#include <cstdlib>
#include <iostream>
#include <ostream>

#include "common/error.h"

namespace geomap {

CliParser::CliParser(std::string program_description)
    : description_(std::move(program_description)) {}

void CliParser::add_int(const std::string& name, std::int64_t default_value,
                        const std::string& help) {
  flags_[name] = Flag{Kind::kInt, std::to_string(default_value), help};
}

void CliParser::add_double(const std::string& name, double default_value,
                           const std::string& help) {
  flags_[name] = Flag{Kind::kDouble, std::to_string(default_value), help};
}

void CliParser::add_string(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  flags_[name] = Flag{Kind::kString, default_value, help};
}

void CliParser::add_bool(const std::string& name, bool default_value,
                         const std::string& help) {
  flags_[name] = Flag{Kind::kBool, default_value ? "true" : "false", help};
}

bool CliParser::parse(int argc, char** argv) {
  try {
    return parse_flags(argc, argv);
  } catch (const InvalidArgument& e) {
    std::cerr << program_name() << ": " << e.what() << "\n\n";
    print_usage(std::cerr);
    std::exit(2);
  }
}

bool CliParser::parse_flags(int argc, char** argv) {
  if (argc > 0) program_name_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      throw InvalidArgument("unexpected argument: " + arg);
    }
    arg = arg.substr(2);

    std::string name;
    std::string value;
    bool has_value = false;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    } else {
      name = arg;
    }

    auto it = flags_.find(name);
    if (it == flags_.end())
      throw InvalidArgument("unknown flag --" + name + " (try --help)");

    if (!has_value) {
      if (it->second.kind == Kind::kBool) {
        value = "true";
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        throw InvalidArgument("flag --" + name + " needs a value");
      }
    }

    // Validate eagerly so bad input fails at parse time.
    bool ok = true;
    try {
      switch (it->second.kind) {
        case Kind::kInt:
          (void)std::stoll(value);
          break;
        case Kind::kDouble:
          (void)std::stod(value);
          break;
        case Kind::kBool:
          ok = value == "true" || value == "false" || value == "1" ||
               value == "0";
          break;
        case Kind::kString:
          break;
      }
    } catch (const std::exception&) {
      ok = false;
    }
    if (!ok) {
      throw InvalidArgument("bad value '" + value + "' for flag --" + name);
    }
    it->second.value = value;
  }
  return true;
}

const CliParser::Flag& CliParser::find(const std::string& name,
                                       Kind kind) const {
  auto it = flags_.find(name);
  GEOMAP_CHECK_MSG(it != flags_.end(), "flag --" << name << " not registered");
  GEOMAP_CHECK_MSG(it->second.kind == kind,
                   "flag --" << name << " accessed with wrong type");
  return it->second;
}

std::int64_t CliParser::get_int(const std::string& name) const {
  return std::stoll(find(name, Kind::kInt).value);
}

double CliParser::get_double(const std::string& name) const {
  return std::stod(find(name, Kind::kDouble).value);
}

std::string CliParser::get_string(const std::string& name) const {
  return find(name, Kind::kString).value;
}

bool CliParser::get_bool(const std::string& name) const {
  const std::string& v = find(name, Kind::kBool).value;
  return v == "true" || v == "1";
}

bool CliParser::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string CliParser::program_name() const {
  const auto slash = program_name_.find_last_of('/');
  return slash == std::string::npos ? program_name_
                                    : program_name_.substr(slash + 1);
}

void CliParser::print_usage(std::ostream& os) const {
  os << description_ << "\n\nUsage: " << program_name_ << " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name << " (default: " << flag.value << ")\n      "
       << flag.help << "\n";
  }
}

}  // namespace geomap
