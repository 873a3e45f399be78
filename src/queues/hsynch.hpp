// H-Synch — the hierarchical combining construction of Fatourou &
// Kallimanis (PPoPP 2012), used by H-Queue: the combiner of ccsynch.hpp
// with one publication list per cluster.
#pragma once

#include "queues/ccsynch.hpp"

namespace lcrq {

template <typename Object, typename ApplyFn>
using HSynch = Combiner<Object, ApplyFn>;

}  // namespace lcrq
