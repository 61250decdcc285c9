#include "hot/sink.hpp"
// bgl:hot-begin(rows-demo)
void append_row(Sink& sink, Transaction row) {
  for (Item item : row) {
    sink.put(item);
  }
}
// bgl:hot-end
