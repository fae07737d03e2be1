// Minimal HTTP/1.1 layer for gpfd's observability endpoints.
//
// This is deliberately not a web framework: GET only, Connection: close,
// request head capped at 8 KiB and due within 2 s of connecting. It exists
// so `curl http://gpfd/v1/stats` and dashboards can read campaign progress
// and warehouse rollups without speaking the binary frame protocol. The
// connections themselves are served by the coordinator's epoll loop (see
// Coordinator::listen_http), next to the workers' frame connections; this
// file holds the wire format and gpfd's routes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/protocol.hpp"

namespace gpf::net {

class Coordinator;

/// A request head (request line + headers + blank line) longer than this is
/// answered 400 without waiting for its end.
constexpr std::size_t kHttpMaxHeadBytes = 8192;
/// A client that has not sent its whole head this long after connecting is
/// disconnected unanswered.
constexpr std::uint32_t kHttpHeadDeadlineMs = 2000;

struct HttpRequest {
  std::string method;  ///< "GET"
  std::string target;  ///< raw request target, e.g. "/v1/query?metric=epr"
  std::string path;    ///< target up to '?'
  std::map<std::string, std::string> params;  ///< decoded query parameters
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

/// Parses an HTTP/1.1 request head (request line + headers, as read off the
/// wire up to the blank line). Returns false on anything malformed. Query
/// parameters are split on '&'/'=' and percent-decoded.
bool parse_http_request(const std::string& head, HttpRequest& out);

/// Serializes status line + headers + body, ready to write to the socket.
std::string serialize_http_response(const HttpResponse& r);

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// Incremental request reader for a non-blocking connection: given the
/// bytes received so far and whether the peer has shut down its side,
/// returns the serialized response once the head is complete (or can never
/// be): the handler's answer, 400 for a malformed head or one over
/// kHttpMaxHeadBytes, 405 for anything but GET, 500 with the reason when
/// the handler throws. Returns nullopt while more bytes are needed.
std::optional<std::string> answer_http(std::string_view received, bool eof,
                                       const HttpHandler& handler);

/// gpfd's routes: /v1/stats (live coordinator view, ?campaign= scopes it),
/// /v1/campaigns (the registry) and /v1/query (warehouse rollups;
/// ?metric=epr|classes|syndromes|workers, ?format=json|csv|table,
/// ?campaign= picks the store when several are registered). /v1/query
/// refreshes the campaign's segment incrementally before answering, so its
/// rows are exactly the records in the store at request time.
HttpResponse gpfd_route(const HttpRequest& req, Coordinator& coordinator);

/// The /v1/stats body: the same live progress view `gpfctl top` renders —
/// aggregate (or campaign-scoped) progress, the campaign registry, and the
/// worker table — as JSON.
std::string stats_json(const StatsSnapshot& st);

/// The /v1/campaigns body: the registry rows, as JSON.
std::string campaigns_json(const std::vector<CampaignRow>& rows);

}  // namespace gpf::net
