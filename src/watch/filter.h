// watch::Filter: the watch layer's interest description. Watches and
// filtered pubsub subscriptions share one filter algebra (and one
// InterestIndex implementation), so the type is an alias rather than a
// sibling — a filter carried on the wire means the same thing to both
// subsystems. The one semantic difference: ChangeEvents carry no headers, so
// a watch filter must not use header predicates (the watch entry points
// reject them loudly instead of matching nothing silently).
#ifndef SRC_WATCH_FILTER_H_
#define SRC_WATCH_FILTER_H_

#include "pubsub/filter.h"

namespace watch {

using Filter = pubsub::Filter;
using HeaderPredicate = pubsub::HeaderPredicate;

}  // namespace watch

#endif  // SRC_WATCH_FILTER_H_
