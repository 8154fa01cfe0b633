package repro.perfbench

/** A fixed reference computation, timed between calls, that tells how fast
  * the machine runs at that moment.
  *
  * On a shared host the speed of one core drifts by tens of percent over
  * minutes, with the program unchanged, so the wall time of the same calls
  * differs from run to run. The kernel does the kinds of work the pipeline
  * does (character classes into a StringBuilder, string-keyed hash maps,
  * small edit-distance tables, short-lived objects) and uses none of the
  * program's code, so a change to the program changes its time little (what
  * a call leaves behind, such as JIT work, can still slow the kernel run
  * after it; perfbench/README.md gives a case). Each timed call is scaled by [[RefMs]] over the median kernel time around
  * it: the result is the call's time on a machine where the kernel takes
  * [[RefMs]], which is about its time on a quiet 2.1 GHz Xeon vCPU.
  */
object Calibration {
  /** Kernel time, in ms, that defines the reference speed. */
  val RefMs = 1.2

  /** Kernel samples on each side of a call that its speed is the median of. */
  val Window = 10

  /** Words spread over a few MB, so that the kernel, like the pipeline,
    * also waits on the caches and memory that other tenants share.
    */
  private val words: Array[String] = {
    val rng = new scala.util.Random(20240917L)
    val alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.#/ @"
    Array.fill(1 << 16)(Iterator.fill(6 + rng.nextInt(18))(alphabet(rng.nextInt(alphabet.length))).mkString)
  }
  private val WordsPerRun = 600
  private var cursor = 0

  @volatile private var sink = 0

  private def shape(w: String): String = {
    val sb = new java.lang.StringBuilder(w.length)
    var i = 0
    while (i < w.length) {
      val ch = w.charAt(i)
      sb.append(if (Character.isDigit(ch)) 'D' else if (Character.isUpperCase(ch)) 'U'
        else if (Character.isLetter(ch)) 'L' else ch)
      i += 1
    }
    sb.toString
  }

  private def editDistance(a: String, b: String): Int = {
    var prev = new Array[Int](b.length + 1)
    var j0 = 0
    while (j0 <= b.length) { prev(j0) = j0; j0 += 1 }
    var i = 1
    while (i <= a.length) {
      val cur = new Array[Int](b.length + 1)
      cur(0) = i
      var j = 1
      while (j <= b.length) {
        val sub = prev(j - 1) + (if (a.charAt(i - 1) == b.charAt(j - 1)) 0 else 1)
        cur(j) = math.min(sub, math.min(prev(j), cur(j - 1)) + 1)
        j += 1
      }
      prev = cur
      i += 1
    }
    prev(b.length)
  }

  /** Tokens of `w` between separator characters. */
  private def tokens(w: String): Int = {
    var n = 0
    var inToken = false
    var i = 0
    while (i < w.length) {
      val sep = "-_./# @".indexOf(w.charAt(i).toInt) >= 0
      if (!sep && !inToken) n += 1
      inToken = !sep
      i += 1
    }
    n
  }

  /** Own open-addressing table of the words' shapes: the kernel calls no
    * collection code, so the program's use of collections cannot change
    * how the kernel is compiled.
    */
  private def kernel(): Int = {
    val keys = new Array[String](2048)
    val counts = new Array[Int](2048)
    var acc = 0
    var i = 0
    while (i < WordsPerRun) {
      // a fixed stride through all the words: each run reads other ones
      cursor = (cursor + 40503) & (words.length - 1)
      val w = words(cursor)
      val sh = shape(w)
      var slot = (sh.hashCode & 0x7fffffff) % keys.length
      while (keys(slot) != null && keys(slot) != sh) slot = (slot + 1) % keys.length
      keys(slot) = sh
      counts(slot) += 1
      acc += editDistance(w, words(cursor ^ 1)) + tokens(w)
      i += 1
    }
    var distinct = 0
    i = 0
    while (i < counts.length) { if (counts(i) > 0) distinct += 1; i += 1 }
    acc + distinct
  }

  /** Run the kernel until the JIT has compiled it. */
  def warmUp(): Unit = (1 to 1000).foreach(_ => sink += kernel())

  /** Run the kernel once; its wall time in ms. */
  def timeMs(): Double = {
    val t0 = System.nanoTime()
    sink += kernel()
    (System.nanoTime() - t0) / 1e6
  }

  /** For each sample, `RefMs` over the median kernel time of the `Window`
    * samples on either side of it (in the order they were taken).
    */
  def factors(kernelMs: IndexedSeq[Double]): IndexedSeq[Double] =
    kernelMs.indices.map { i =>
      RefMs / Stats.median(kernelMs.slice(math.max(0, i - Window), math.min(kernelMs.length, i + Window + 1)))
    }
}
