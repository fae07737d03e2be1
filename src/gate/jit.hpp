// Compatibility shim for the campaign benchmark only: perfbench/src/main.cpp
// includes this header and logs batch_engine_tag(). Remove it together with
// that call in the next change to the benchmark.
#pragma once

namespace gpf::gate {

/// Always "interp": the batch engine's direct-threaded interpreter.
const char* batch_engine_tag();

}  // namespace gpf::gate
