// The spanexd wire protocol: JSONL over a local (AF_UNIX) stream socket.
// Every request is one JSON object on one line; every request produces
// one or more response objects, each on one line, carrying the request's
// `id` back. Requests on one connection are answered in order.
//
// Requests (op → fields):
//   ping           {"op":"ping","id":1}
//                  Optional "sleep_ms":N routes the ping through the
//                  admission queue and holds the executor N ms — the
//                  backpressure test/bench hook. The request's token
//                  governs the sleep like any other work: a deadline, a
//                  disconnect or a drain force-close ends it early. A
//                  plain ping is answered inline and never queued or
//                  refused.
//   register       {"op":"register","id":2,"pattern":"x{[0-9]+}"}
//                  Compiles via the server's PlanCache; the session gains
//                  a handle → {"id":2,"ok":true,"handle":1,"plan":"…"}.
//   unregister     {"op":"unregister","id":3,"handle":1}
//   extract        {"op":"extract","id":4,"doc":"…","doc_index":0,
//                   "format":"tsv","header":false}
//                  One document against every session plan (fleet order =
//                  registration order). Rows are pre-formatted exactly as
//                  offline spanex emits them (doc_index is the caller's
//                  row label); "header":true prepends the session's
//                  header block.
//   extract_batch  {"op":"extract_batch","id":5,"format":"tsv",
//                   "header":true,"all":false}
//                  The session fleet over the server's held corpus, with
//                  posting-index gating when the server was started with
//                  --index. Rows stream back in chunks (below).
//                  "all":true runs a fleet of every plan resident in the
//                  server's PlanCache when the request arrives (key
//                  order, whichever session registered it), built for
//                  this request; the session needs no plan of its own.
//   stats          {"op":"stats","id":6}
//                  → {"id":6,"ok":true,"report":{…EngineReport JSON…},
//                     "text":"…EngineReport text…"}
//   drain          {"op":"drain","id":7}
//                  Stop admitting, finish in-flight work, flush, exit 0.
//
// Responses:
//   success        {"id":N,"ok":true,…op-specific fields…}
//   row chunk      {"id":N,"rows":["…","…"],"done":false}   (extract*)
//                  zero or more, each under kRowsChunkBytes plus one row,
//                  then a final {"id":N,"ok":true,"done":true,
//                  "mappings":M,"matched_docs":D}
//   error          {"id":N,"ok":false,"error":{"code":"Unavailable",
//                   "message":"…","retry_after_ms":50}}
//                  `code` is StatusCodeToString of the refusing Status;
//                  retry_after_ms appears only on Unavailable and tells
//                  the client this is backoff, not a hard error.
#ifndef SPANNERS_SERVER_PROTOCOL_H_
#define SPANNERS_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "server/json.h"

namespace spanners {
namespace server {

/// Protocol limits shared by server and client: one JSONL line may not
/// exceed this many bytes (a corrupt or hostile peer cannot balloon the
/// read buffer).
inline constexpr size_t kMaxLineBytes = 64u << 20;

/// A row chunk closes once its line reaches this many bytes, so no line
/// exceeds it by more than one row (and the closing brackets).
inline constexpr size_t kRowsChunkBytes = 256u << 10;

/// "{"id":N,"ok":false,"error":{…}}" for a failed request. Includes
/// retry_after_ms when `status` carries one (Unavailable rejections).
std::string ErrorResponse(int64_t id, const Status& status);

/// The "{"id":N,"ok":true" prefix every success response starts with;
/// callers append op fields and the closing '}'.
std::string OkPrefix(int64_t id);

/// Reconstructs the Status encoded by ErrorResponse from a parsed
/// response object: OK when response["ok"] is true, else the error code /
/// message / retry_after_ms mapped back onto a Status. Malformed
/// responses come back as Internal.
Status StatusFromResponse(const JsonValue& response);

}  // namespace server
}  // namespace spanners

#endif  // SPANNERS_SERVER_PROTOCOL_H_
