/* Width-tagged trace columns, shared by the time loop (_kernel.c) and
 * the row passes (_rows.c).
 *
 * A trace keeps each of its six columns (kind, addr, size, gap, op,
 * ret) in the narrowest signed integer type that holds it, so a column
 * is its data plus its byte width (1, 2, 4 or 8).
 */

#ifndef GRAPHPIM_COLUMN_H
#define GRAPHPIM_COLUMN_H

#include <stdint.h>

/* Event kinds (repro.trace.events). */
#define EV_LOAD 0
#define EV_STORE 1
#define EV_ATOMIC 2
#define EV_BARRIER 3

/* One trace column: its values and their byte width (1, 2, 4 or 8). */
typedef struct {
    const char *data;
    int64_t width;
} column;

/* Value i of a column, widened to int64.  The widths never change
 * during a pass, so the branch predicts perfectly. */
static inline int64_t col_at(column c, int64_t i) {
    switch (c.width) {
    case 1:
        return ((const int8_t *)c.data)[i];
    case 2:
        return ((const int16_t *)c.data)[i];
    case 4:
        return ((const int32_t *)c.data)[i];
    default:
        return ((const int64_t *)c.data)[i];
    }
}

/* Store v at index i of a column of the given byte width; v must fit. */
static inline void col_put(char *data, int64_t width, int64_t i, int64_t v) {
    switch (width) {
    case 1:
        ((int8_t *)data)[i] = (int8_t)v;
        break;
    case 2:
        ((int16_t *)data)[i] = (int16_t)v;
        break;
    case 4:
        ((int32_t *)data)[i] = (int32_t)v;
        break;
    default:
        ((int64_t *)data)[i] = v;
    }
}

#endif
