#include "net/http.hpp"

#include <cstdio>
#include <sstream>

#include "common/env.hpp"
#include "net/coordinator.hpp"
#include "obs/metrics.hpp"
#include "store/export.hpp"
#include "warehouse/compact.hpp"
#include "warehouse/query.hpp"

namespace gpf::net {

namespace {

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
  }
  return "Unknown";
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string percent_decode(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      const int hi = hex_digit(s[i + 1]), lo = hex_digit(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
        continue;
      }
    }
    out.push_back(s[i] == '+' ? ' ' : s[i]);
  }
  return out;
}

/// Escapes a string for embedding in a JSON value.
std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace

bool parse_http_request(const std::string& head, HttpRequest& out) {
  const std::size_t line_end = head.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) return false;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return false;
  out.method = line.substr(0, sp1);
  out.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (out.method.empty() || out.target.empty() || out.target[0] != '/')
    return false;
  if (line.compare(sp2 + 1, 5, "HTTP/") != 0) return false;

  const std::size_t q = out.target.find('?');
  out.path = out.target.substr(0, q);
  out.params.clear();
  if (q != std::string::npos) {
    std::size_t start = q + 1;
    while (start <= out.target.size()) {
      std::size_t end = out.target.find('&', start);
      if (end == std::string::npos) end = out.target.size();
      const std::string pair = out.target.substr(start, end - start);
      if (!pair.empty()) {
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos)
          out.params[percent_decode(pair)] = "";
        else
          out.params[percent_decode(pair.substr(0, eq))] =
              percent_decode(pair.substr(eq + 1));
      }
      start = end + 1;
    }
  }
  return true;
}

std::string serialize_http_response(const HttpResponse& r) {
  std::ostringstream os;
  os << "HTTP/1.1 " << r.status << " " << status_text(r.status) << "\r\n"
     << "Content-Type: " << r.content_type << "\r\n"
     << "Content-Length: " << r.body.size() << "\r\n"
     << "Connection: close\r\n\r\n"
     << r.body;
  return os.str();
}

std::optional<std::string> answer_http(std::string_view received, bool eof,
                                       const HttpHandler& handler) {
  static obs::Counter& requests = obs::counter("http.requests");
  static obs::Counter& errors = obs::counter("http.errors");
  const std::size_t blank = received.find("\r\n\r\n");
  const bool complete = blank != std::string_view::npos;
  const bool oversized = complete ? blank + 4 > kHttpMaxHeadBytes
                                  : received.size() >= kHttpMaxHeadBytes;
  if (!complete && !oversized && !eof) return std::nullopt;

  HttpResponse resp;
  HttpRequest req;
  if (oversized) {
    resp = {400, "application/json", "{\"error\": \"request head over 8 KiB\"}\n"};
  } else if (!parse_http_request(
                 std::string(received.substr(0, complete ? blank + 4
                                                         : received.size())),
                 req)) {
    resp = {400, "application/json", "{\"error\": \"malformed request\"}\n"};
  } else if (req.method != "GET") {
    resp = {405, "application/json", "{\"error\": \"GET only\"}\n"};
  } else {
    try {
      resp = handler(req);
    } catch (const std::exception& e) {
      resp = {500, "application/json",
              "{\"error\": " + json_str(e.what()) + "}\n"};
      errors.add(1);
    }
  }
  requests.add(1);
  return serialize_http_response(resp);
}

HttpResponse gpfd_route(const HttpRequest& req, Coordinator& coordinator) {
  const auto param = [&req](const char* key) -> std::string {
    const auto it = req.params.find(key);
    return it == req.params.end() ? "" : it->second;
  };
  if (req.path == "/v1/stats")
    return {200, "application/json",
            stats_json(coordinator.snapshot_stats(param("campaign")))};
  if (req.path == "/v1/campaigns")
    return {200, "application/json", campaigns_json(coordinator.list_campaigns())};
  if (req.path == "/v1/query") {
    if (!warehouse_enabled())
      return {404, "application/json",
              "{\"error\": \"warehouse disabled (GPF_WAREHOUSE=0)\"}\n"};
    const std::string store = coordinator.store_path(param("campaign"));
    if (store.empty())
      return {400, "application/json",
              "{\"error\": \"ambiguous or unknown campaign; pass "
              "?campaign=NAME\"}\n"};
    warehouse::Metric metric = warehouse::Metric::Epr;
    warehouse::QueryFormat format = warehouse::QueryFormat::Json;
    if (req.params.count("metric") &&
        !warehouse::parse_metric(param("metric"), metric))
      return {400, "application/json",
              "{\"error\": \"unknown metric; expected "
              "epr|classes|syndromes|workers\"}\n"};
    if (req.params.count("format") &&
        !warehouse::parse_format(param("format"), format))
      return {400, "application/json",
              "{\"error\": \"unknown format; expected json|csv|table\"}\n"};
    const std::string seg = warehouse::warehouse_path_for(store);
    warehouse::refresh_segment({store}, seg);
    return {200,
            format == warehouse::QueryFormat::Json ? "application/json"
                                                   : "text/plain",
            warehouse::render_metric(warehouse::read_footer(seg), metric,
                                     format)};
  }
  return {404, "application/json", "{\"error\": \"no such endpoint\"}\n"};
}

namespace {

const char* campaign_state_name(std::uint8_t state) {
  switch (state) {
    case 0: return "running";
    case 1: return "removing";
    case 2: return "done";
  }
  return "?";
}

void append_campaign_row(std::ostringstream& os, const CampaignRow& c) {
  os << "{\"name\": " << json_str(c.name) << ", \"kind\": \""
     << store::campaign_kind_name(static_cast<store::CampaignKind>(c.kind))
     << "\", \"state\": \"" << campaign_state_name(c.state)
     << "\", \"priority\": " << c.priority
     << ", \"total_ids\": " << c.total_ids
     << ", \"retired_ids\": " << c.retired_ids
     << ", \"pending_units\": " << c.pending_units
     << ", \"leased_units\": " << c.leased_units << "}";
}

}  // namespace

std::string stats_json(const StatsSnapshot& st) {
  std::ostringstream os;
  os << "{\n  \"progress\": {\"total_ids\": " << st.total_ids
     << ", \"retired_ids\": " << st.retired_ids
     << ", \"done_at_open\": " << st.done_at_open
     << ", \"pending_units\": " << st.pending_units
     << ", \"leased_units\": " << st.leased_units
     << ", \"elapsed_ms\": " << st.elapsed_ms
     << ", \"rate_milli\": " << st.rate_milli << ", \"eta_ms\": " << st.eta_ms
     << ", \"draining\": " << (st.draining ? "true" : "false")
     << ", \"connected_workers\": " << st.connected_workers
     << ", \"desired_workers\": " << st.desired_workers
     << ", \"evicted_workers\": " << st.evicted_workers
     << ", \"evicted_retired\": " << st.evicted_retired << "},\n";
  os << "  \"campaigns\": [\n";
  for (std::size_t i = 0; i < st.campaigns.size(); ++i) {
    os << (i ? ",\n" : "") << "    ";
    append_campaign_row(os, st.campaigns[i]);
  }
  os << "\n  ],\n  \"workers\": [\n";
  for (std::size_t i = 0; i < st.workers.size(); ++i) {
    const WorkerRow& w = st.workers[i];
    os << (i ? ",\n" : "") << "    {\"session\": " << w.session
       << ", \"name\": " << json_str(w.name) << ", \"retired\": " << w.retired
       << ", \"leased_units\": " << w.leased_units
       << ", \"idle_ms\": " << w.idle_ms
       << ", \"connected\": " << (w.connected ? "true" : "false") << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

std::string campaigns_json(const std::vector<CampaignRow>& rows) {
  std::ostringstream os;
  os << "{\n  \"campaigns\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    os << (i ? ",\n" : "") << "    ";
    append_campaign_row(os, rows[i]);
  }
  os << "\n  ]\n}\n";
  return os.str();
}

}  // namespace gpf::net
