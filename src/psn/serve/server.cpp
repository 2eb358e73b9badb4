#include "psn/serve/server.hpp"

#include <algorithm>
#include <iostream>
#include <memory>
#include <utility>

namespace psn::serve {

namespace {

bool is_blank(const std::string& line) {
  return std::all_of(line.begin(), line.end(), [](unsigned char c) {
    return c == ' ' || c == '\t' || c == '\r';
  });
}

std::string error_line(const std::string& id, const std::string& error) {
  Json response;
  if (!id.empty()) response["id"] = id;
  response["ok"] = false;
  response["error"] = error;
  return response.dump();
}

}  // namespace

void process_line(SweepService& service, const std::string& line,
                  std::function<void(const std::string&)> write_line) {
  if (is_blank(line)) return;

  Json json;
  try {
    json = Json::parse(line);
  } catch (const JsonError& e) {
    write_line(error_line("", e.what()));
    return;
  }

  Request request;
  try {
    request = parse_request(json);
  } catch (const RequestError& e) {
    const Json& id = json.is_object() ? json.at("id") : json;
    write_line(error_line(id.is_string() ? id.as_string() : "", e.what()));
    return;
  }

  service.enqueue(std::move(request),
                  [write_line = std::move(write_line)](const Json& response) {
                    write_line(response.dump());
                  });
}

int run_stdio_server(SweepService& service, std::istream& in,
                     std::ostream& out) {
  // One writer mutex: responses come from the dispatcher thread while
  // errors are written inline from this one.
  auto write_mu = std::make_shared<util::Mutex>();
  const auto write_line = [&out, write_mu](const std::string& text) {
    util::LockGuard lock(*write_mu);
    out << text << '\n' << std::flush;
  };

  std::string line;
  while (!service.shutdown_requested() && std::getline(in, line))
    process_line(service, line, write_line);

  // EOF (or shutdown): answer everything already admitted before exiting.
  service.drain();
  return 0;
}

}  // namespace psn::serve
