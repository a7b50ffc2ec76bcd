// The sharded front is session_manager{detector, config, num_shards}.
// This alias exists only for perfbench/src/front.h, which still names the
// old type; nothing else uses it.
#pragma once

#include "serve/session_manager.h"

namespace ivc::serve {

using shard_manager = session_manager;

}  // namespace ivc::serve
