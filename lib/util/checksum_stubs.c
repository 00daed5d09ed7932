/* Adler-32 (RFC 1950) over a byte range of an OCaml bytes value.

   Both sums are kept in 32 bits and reduced modulo 65521 once per run
   of at most NMAX bytes, zlib's bound: the largest n with
   255 n (n + 1) / 2 + (n + 1) (65520) < 2^32, so neither sum can wrap
   between reductions.

   On x86-64 (SSE2 is baseline there) whole 32-byte steps go through a
   vector kernel; the portable loop takes the tail, and everything on
   other targets.  Both stubs neither allocate nor raise; the OCaml side
   checks bounds. */

#include <stddef.h>
#include <stdint.h>

#include <caml/mlvalues.h>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#define BASE 65521u
#define NMAX 5552

/* Per byte, in runs of up to NMAX; returns (s << 16) | a. */
static uint32_t adler_portable(uint32_t a, uint32_t s,
                               const unsigned char *p, size_t len)
{
  while (len > 0) {
    size_t n = len < NMAX ? len : NMAX;
    len -= n;
    while (n-- > 0) {
      a += *p++;
      s += a;
    }
    a %= BASE;
    s %= BASE;
  }
  return (s << 16) | a;
}

#if defined(__SSE2__)

/* 32-byte steps per run: 173 * 32 = 5536 <= NMAX. */
#define STEPS (NMAX / 32)

static uint32_t horizontal_sum(__m128i v)
{
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2)));
  v = _mm_add_epi32(v, _mm_shuffle_epi32(v, _MM_SHUFFLE(2, 3, 0, 1)));
  return (uint32_t) _mm_cvtsi128_si32(v);
}

/* A run of n steps of 32 bytes x_0 .. x_31 each.  Step j adds its byte
   sum to a, and 32 a_j + (32 x_0 + 31 x_1 + ... + 1 x_31) to s, where
   a_j is a on entry to the step.  psadbw against zero gives the byte
   sums; the bytes widened to 16 bits and multiplied by the weights
   32 .. 1 with pmaddwd give the weighted sums; [pre] adds up each
   step's entry value of [sum] (the bytes before it in the run), so the
   run adds 32 (n a + pre) + weighted to s.  Every 32-bit lane stays far
   below 2^32: a lane of [pre] holds at most 4080 n (n - 1) / 2. */
static uint32_t adler_sse2(uint32_t a, uint32_t s, const unsigned char *p,
                           size_t len)
{
  const __m128i zero = _mm_setzero_si128();
  const __m128i w_hi = _mm_setr_epi16(32, 31, 30, 29, 28, 27, 26, 25);
  const __m128i w_mh = _mm_setr_epi16(24, 23, 22, 21, 20, 19, 18, 17);
  const __m128i w_ml = _mm_setr_epi16(16, 15, 14, 13, 12, 11, 10, 9);
  const __m128i w_lo = _mm_setr_epi16(8, 7, 6, 5, 4, 3, 2, 1);
  size_t steps = len / 32;
  while (steps > 0) {
    size_t n = steps < STEPS ? steps : STEPS;
    __m128i sum = zero, pre = zero, weighted = zero;
    steps -= n;
    s += (uint32_t) (32 * n) * a;
    for (size_t j = 0; j < n; j++) {
      __m128i x0 = _mm_loadu_si128((const __m128i *) p);
      __m128i x1 = _mm_loadu_si128((const __m128i *) (p + 16));
      p += 32;
      pre = _mm_add_epi32(pre, sum);
      sum = _mm_add_epi32(sum, _mm_sad_epu8(x0, zero));
      sum = _mm_add_epi32(sum, _mm_sad_epu8(x1, zero));
      weighted = _mm_add_epi32(
          weighted, _mm_madd_epi16(_mm_unpacklo_epi8(x0, zero), w_hi));
      weighted = _mm_add_epi32(
          weighted, _mm_madd_epi16(_mm_unpackhi_epi8(x0, zero), w_mh));
      weighted = _mm_add_epi32(
          weighted, _mm_madd_epi16(_mm_unpacklo_epi8(x1, zero), w_ml));
      weighted = _mm_add_epi32(
          weighted, _mm_madd_epi16(_mm_unpackhi_epi8(x1, zero), w_lo));
    }
    s += 32 * horizontal_sum(pre) + horizontal_sum(weighted);
    a += horizontal_sum(sum);
    a %= BASE;
    s %= BASE;
  }
  return adler_portable(a, s, p, len % 32);
}

#endif

/* adler32_unsafe b pos len / adler32_portable_unsafe b pos len: the
   checksum as an unsigned int. */
value lfs_util_adler32(value b, value pos, value len)
{
  const unsigned char *p = Bytes_val(b) + Long_val(pos);
#if defined(__SSE2__)
  return Val_long(adler_sse2(1, 0, p, Long_val(len)));
#else
  return Val_long(adler_portable(1, 0, p, Long_val(len)));
#endif
}

value lfs_util_adler32_portable(value b, value pos, value len)
{
  return Val_long(
      adler_portable(1, 0, Bytes_val(b) + Long_val(pos), Long_val(len)));
}
