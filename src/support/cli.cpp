#include "support/cli.hpp"

#include <iostream>
#include <sstream>
#include <stdexcept>

#include "support/error.hpp"

namespace topomap {

namespace {

/// `parse(text, &pos)` over the whole of `text` (std::stoll / std::stod).
template <typename T, typename Parse>
T parse_whole(const std::string& text, const std::string& what,
              const char* kind, Parse parse) {
  std::size_t pos = 0;
  try {
    const T out = parse(text, &pos);
    if (pos == text.size()) return out;
  } catch (const std::out_of_range&) {
    throw precondition_error(what + " is out of range: '" + text + "'");
  } catch (const std::invalid_argument&) {
  }
  throw precondition_error(what + " is not " + kind + ": '" + text + "'");
}

}  // namespace

std::int64_t parse_integer(const std::string& text, const std::string& what) {
  return parse_whole<std::int64_t>(
      text, what, "an integer", [](const std::string& s, std::size_t* pos) {
        return std::stoll(s, pos);
      });
}

double parse_real(const std::string& text, const std::string& what) {
  return parse_whole<double>(
      text, what, "a number", [](const std::string& s, std::size_t* pos) {
        return std::stod(s, pos);
      });
}

int run_main(int argc, char** argv, int (*body)(int argc, char** argv)) {
  try {
    return body(argc, argv);
  } catch (const usage_error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const precondition_error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const invariant_error& e) {
    std::cerr << "internal error: " << e.what() << "\n";
    return 3;
  } catch (const io_error& e) {
    std::cerr << "I/O error: " << e.what() << "\n";
    return 4;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

CliParser::CliParser(std::string program_description)
    : description_(std::move(program_description)) {
  add_flag("help", "print this help text");
}

void CliParser::add_flag(const std::string& name, const std::string& help) {
  TOPOMAP_REQUIRE(!options_.count(name), "duplicate option: " + name);
  options_[name] = Option{help, "false", /*is_flag=*/true};
}

void CliParser::add_option(const std::string& name, const std::string& help,
                           const std::string& default_value) {
  TOPOMAP_REQUIRE(!options_.count(name), "duplicate option: " + name);
  options_[name] = Option{help, default_value, /*is_flag=*/false};
}

bool CliParser::parse(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "topomap-bin";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0)
      throw usage_error("unexpected positional argument '" + arg +
                        "' (--help lists the options)");
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    auto it = options_.find(arg);
    if (it == options_.end())
      throw usage_error("unknown option --" + arg +
                        " (--help lists the options)");
    Option& opt = it->second;
    if (opt.is_flag) {
      if (has_value)
        throw usage_error("flag --" + arg + " does not take a value");
      opt.value = "true";
    } else {
      if (!has_value) {
        if (i + 1 >= argc)
          throw usage_error("option --" + arg + " needs a value");
        value = argv[++i];
      }
      opt.value = value;
    }
  }
  if (flag("help")) {
    std::cout << usage();
    return false;
  }
  return true;
}

const CliParser::Option& CliParser::lookup(const std::string& name) const {
  auto it = options_.find(name);
  TOPOMAP_REQUIRE(it != options_.end(), "option was never registered: " + name);
  return it->second;
}

bool CliParser::flag(const std::string& name) const {
  return lookup(name).value == "true";
}

std::string CliParser::str(const std::string& name) const {
  return lookup(name).value;
}

std::int64_t CliParser::integer(const std::string& name) const {
  return parse_integer(lookup(name).value, "option --" + name);
}

double CliParser::real(const std::string& name) const {
  return parse_real(lookup(name).value, "option --" + name);
}

std::vector<std::int64_t> CliParser::int_list(const std::string& name) const {
  std::vector<std::int64_t> out;
  std::stringstream ss(lookup(name).value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    out.push_back(parse_integer(item, "option --" + name));
  }
  return out;
}

std::vector<double> CliParser::real_list(const std::string& name) const {
  std::vector<double> out;
  std::stringstream ss(lookup(name).value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    out.push_back(parse_real(item, "option --" + name));
  }
  return out;
}

std::string CliParser::usage() const {
  std::ostringstream os;
  os << description_ << "\n\nusage: " << program_ << " [options]\n";
  for (const auto& [name, opt] : options_) {
    os << "  --" << name;
    if (!opt.is_flag) os << "=<" << opt.value << ">";
    os << "\n      " << opt.help << "\n";
  }
  return os.str();
}

}  // namespace topomap
