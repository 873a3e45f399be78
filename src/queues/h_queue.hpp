// H-Queue (Fatourou & Kallimanis, PPoPP 2012): the two-lock combining
// queue of cc_queue.hpp over one H-Synch list per cluster.
#pragma once

#include "queues/cc_queue.hpp"
