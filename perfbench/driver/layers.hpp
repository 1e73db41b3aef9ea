/**
 * @file
 * Layer-boundary interception (see layers.cpp).
 */

#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <string>
#include <vector>

namespace perfbench {

/** Span names of intercepted functions this build of the repo no longer
 *  defines under the signature layers.cpp expects: calls to them are
 *  not timed, so a traced run would read 0 for their layer metrics. */
std::vector<std::string> missingHooks();

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HPP
