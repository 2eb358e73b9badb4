#include "psn/trace/trace_io.hpp"

#include <array>
#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace psn::trace {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& why) {
  throw std::runtime_error("trace parse error at line " +
                           std::to_string(line_no) + ": " + why);
}

constexpr auto kMaxNodeId =
    static_cast<long long>(std::numeric_limits<NodeId>::max());

// Streams a time in the shortest form that reads back as the same double,
// so a trace round-trips exactly; whole seconds print without a fraction.
struct Exact {
  Seconds s;
};

std::ostream& operator<<(std::ostream& out, Exact t) {
  std::array<char, 32> buf{};
  const auto result = std::to_chars(buf.data(), buf.data() + buf.size(), t.s);
  return out.write(buf.data(), result.ptr - buf.data());
}

}  // namespace

ContactTrace read_trace(std::istream& in) {
  std::vector<Contact> contacts;
  NodeId num_nodes = 0;
  Seconds t_max = -1.0;
  bool saw_nodes = false;

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream hs(line.substr(1));
      std::string key;
      hs >> key;
      if (key == "nodes") {
        long long n = -1;
        hs >> n;
        if (!hs || n <= 0 || n > kMaxNodeId)
          fail(line_no, "bad '# nodes' directive");
        num_nodes = static_cast<NodeId>(n);
        saw_nodes = true;
      } else if (key == "tmax") {
        hs >> t_max;
        if (!hs || t_max <= 0.0) fail(line_no, "bad '# tmax' directive");
      }
      continue;  // other comment lines ignored
    }
    std::istringstream ls(line);
    long long a = -1;
    long long b = -1;
    Seconds start = 0.0;
    Seconds end = 0.0;
    ls >> a >> b >> start >> end;
    if (!ls) fail(line_no, "expected '<a> <b> <start> <end>'");
    if (a < 0 || b < 0) fail(line_no, "negative node id");
    if (a > kMaxNodeId || b > kMaxNodeId) fail(line_no, "node id too large");
    if (a == b) fail(line_no, "self contact");
    if (end < start) fail(line_no, "contact ends before it starts");
    contacts.push_back(Contact::make(static_cast<NodeId>(a),
                                     static_cast<NodeId>(b), start, end));
  }

  if (!saw_nodes) fail(line_no, "missing '# nodes' header");
  if (t_max <= 0.0) fail(line_no, "missing '# tmax' header");
  return ContactTrace(std::move(contacts), num_nodes, t_max);
}

ContactTrace read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  return read_trace(in);
}

void write_trace(std::ostream& out, const ContactTrace& trace) {
  out << "# psn-trace v1\n";
  out << "# nodes " << trace.num_nodes() << '\n';
  out << "# tmax " << Exact{trace.t_max()} << '\n';
  for (const Contact& c : trace.contacts())
    out << c.a << ' ' << c.b << ' ' << Exact{c.start} << ' ' << Exact{c.end}
        << '\n';
}

void write_trace_file(const std::string& path, const ContactTrace& trace) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file: " + path);
  write_trace(out, trace);
  if (!out) throw std::runtime_error("error writing trace file: " + path);
}

}  // namespace psn::trace
