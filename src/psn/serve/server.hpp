// Transport front-end of psn_serve: a stdio NDJSON loop feeding one
// SweepService.
//
// Protocol: one JSON request per line in, one JSON response per line
// out. Responses may arrive out of request order (the dispatcher batches
// and coalesces); clients correlate by "id". Malformed lines get an
// immediate {"ok":false,"error":...} response — the process never dies
// on bad input. The loop ends at EOF or after an admin shutdown request
// has been answered (clients send shutdown, then close their end).

#pragma once

#include <functional>
#include <iosfwd>
#include <string>

#include "psn/serve/service.hpp"

namespace psn::serve {

/// Handles one protocol line: parse, validate, enqueue. `write_line`
/// receives each response's canonical single-line serialization (without
/// the trailing newline) — asynchronously for admitted requests, and
/// synchronously for parse/validation errors. It must be callable from
/// the dispatcher thread and serialize its own writes.
void process_line(SweepService& service, const std::string& line,
                  std::function<void(const std::string&)> write_line);

/// Reads requests from `in` until EOF or shutdown, writing responses to
/// `out`. Returns the process exit code (0).
int run_stdio_server(SweepService& service, std::istream& in,
                     std::ostream& out);

}  // namespace psn::serve
