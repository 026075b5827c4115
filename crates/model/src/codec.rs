//! Bit-serial payloads, the transmission pattern of every `BCC(b)`
//! upper bound here.
//!
//! A vertex broadcasts `b` symbols per round, so sending a `w`-bit
//! value takes `⌈w/b⌉` rounds. [`BitStream`] fixes that pattern once,
//! LSB first, for every node program: it sends the vertex's payload
//! `k` symbols per round and gathers every port's payload into one
//! flat buffer, so a program only says what it sends and which fields
//! it reads back. [`u64_to_bits`]/[`bits_to_u64`] remain for the bit
//! strings of two-party protocols.

use crate::program::Inbox;
use crate::symbol::{low_mask, Message, Symbol};

/// Bits needed to encode any value in `0..n` (at least 1).
///
/// # Example
///
/// ```
/// use bcc_model::codec::bits_needed;
/// assert_eq!(bits_needed(1), 1);
/// assert_eq!(bits_needed(2), 1);
/// assert_eq!(bits_needed(6), 3);
/// assert_eq!(bits_needed(64), 6);
/// assert_eq!(bits_needed(65), 7);
/// ```
pub fn bits_needed(n: usize) -> usize {
    if n <= 2 {
        1
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// Encodes `value` as `width` bits, LSB first.
///
/// # Panics
///
/// Panics if `value` does not fit in `width` bits.
pub fn u64_to_bits(value: u64, width: usize) -> Vec<bool> {
    assert!(
        width >= 64 || value < (1u64 << width),
        "value {value} does not fit in {width} bits"
    );
    (0..width).map(|i| value >> i & 1 == 1).collect()
}

/// Decodes LSB-first bits into a `u64`.
///
/// # Panics
///
/// Panics if more than 64 bits are supplied.
pub fn bits_to_u64(bits: &[bool]) -> u64 {
    assert!(bits.len() <= 64, "at most 64 bits");
    bits.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | (u64::from(b)) << i)
}

/// One exchange of bit-serial payloads: every vertex streams its own
/// payload `rate` symbols per round, and receives every port's
/// payload of up to `width` bits.
///
/// **Send.** The payload is LSB-first `u64` words plus a bit length,
/// built with [`push`](BitStream::push); its first word is inline, so
/// a payload of at most 64 bits allocates nothing. [`send`] emits the
/// `rate` symbols at the current position, `⊥` past the payload's end.
///
/// **Receive.** All ports advance in lockstep with one position.
/// [`receive`] reads every port through [`Inbox::by_port`] into one
/// flat word buffer, a block per port in port order. A port's payload
/// ends at its first `⊥` (or missing message), so a sender whose
/// payload is shorter than `width` simply goes silent, and
/// [`field`](BitStream::field) returns `None` for bits it never sent:
/// a corrupt transcript leaves the reader without a value instead of
/// panicking. [`begin`](BitStream::begin) starts the next exchange on
/// the same buffers, so phases and `NodeProgram::reset` reuse them.
///
/// [`send`]: BitStream::send
/// [`receive`]: BitStream::receive
///
/// # Example
///
/// ```
/// use bcc_model::codec::BitStream;
/// use bcc_model::Inbox;
///
/// // A 5-bit value sent one symbol per round to a one-port neighbor.
/// let (mut alice, mut bob) = (BitStream::new(), BitStream::new());
/// alice.begin(1, 5);
/// alice.push(0b10110, 5);
/// bob.begin(1, 5);
/// while !bob.is_complete() {
///     // The round's board: Alice's broadcast at row 0, Bob's at 1.
///     let board = [alice.send(), bob.send()];
///     bob.receive(&Inbox::new(&[(9, 0)], &board));
///     alice.receive(&Inbox::new(&[(4, 1)], &board));
/// }
/// assert_eq!(bob.field(0, 0, 5), Some(0b10110));
/// // Bob sent nothing: his payload ended at once.
/// assert_eq!(alice.field(0, 0, 1), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitStream {
    /// Symbols sent and read per round.
    rate: usize,
    /// Position of this round's first symbol in every payload.
    pos: usize,
    /// The most bits a payload carries; the exchange ends here.
    width: usize,
    /// Word 0 of our payload.
    head: u64,
    /// Words 1.. of our payload.
    tail: Vec<u64>,
    /// Our payload's length in bits.
    len: usize,
    /// One block per port, in port order: the number of bits the port
    /// delivered, then its payload words.
    recv: Vec<u64>,
}

impl BitStream {
    /// An idle stream: no payload, nothing received, complete.
    pub fn new() -> Self {
        BitStream::default()
    }

    /// Begins an exchange of payloads of at most `width` bits, sent
    /// `rate` symbols per round: our payload is emptied, every port's
    /// is cleared and the position returns to 0. The buffers keep
    /// their capacity.
    pub fn begin(&mut self, rate: usize, width: usize) {
        self.rate = rate;
        self.pos = 0;
        self.width = width;
        self.head = 0;
        self.tail.clear();
        self.len = 0;
        self.recv.clear();
    }

    /// Appends the low `width` bits of `value` to our payload, LSB
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in `width` bits (so if `width`
    /// is above 64).
    pub fn push(&mut self, value: u64, width: usize) {
        assert!(
            width <= 64 && value & !low_mask(width) == 0,
            "value {value} does not fit in {width} bits"
        );
        if width == 0 {
            return;
        }
        let (word, shift) = (self.len / 64, self.len % 64);
        *self.word_mut(word) |= value << shift;
        if shift + width > 64 {
            *self.word_mut(word + 1) |= value >> (64 - shift);
        }
        self.len += width;
    }

    fn word_mut(&mut self, word: usize) -> &mut u64 {
        if word == 0 {
            return &mut self.head;
        }
        if self.tail.len() < word {
            self.tail.resize(word, 0);
        }
        &mut self.tail[word - 1]
    }

    fn word(&self, word: usize) -> u64 {
        match word {
            0 => self.head,
            _ => self.tail.get(word - 1).copied().unwrap_or(0),
        }
    }

    /// This round's `rate` symbols: our payload's bits from the
    /// current position, `⊥` past its end.
    pub fn send(&self) -> Message {
        let left = self.len.saturating_sub(self.pos).min(self.rate);
        if self.rate <= 64 {
            let ones = read(|w| self.word(w), self.pos, left);
            return Message::from_words(ones, !low_mask(left), self.rate);
        }
        let symbols = (0..self.rate).map(|k| match k < left {
            true => Symbol::bit(read(|w| self.word(w), self.pos + k, 1) == 1),
            false => Symbol::Silent,
        });
        Message::from_symbols(symbols.collect())
    }

    /// Reads this round's `rate` symbols from every port of `inbox`
    /// (read with [`Inbox::by_port`]) and moves to the next position.
    /// The first round's inbox fixes the port count. A port's payload
    /// ends at its first `⊥` or missing message, and symbols past
    /// `width` are not read.
    pub fn receive(&mut self, inbox: &Inbox) {
        let stride = self.stride();
        if self.recv.is_empty() {
            self.recv.resize(inbox.len() * stride, 0);
        }
        let ports = self.recv.len() / stride;
        let (pos, take) = (self.pos, self.rate.min(self.width.saturating_sub(self.pos)));
        self.pos += self.rate;
        // In chunks of up to 64 symbols; a port whose payload ended,
        // in an earlier round or chunk, is behind and skipped.
        let mut start = 0;
        while start < take {
            let at = pos + start;
            let past = !low_mask((take - start).min(64));
            let (w, shift) = (1 + at / 64, at % 64);
            for port in 0..ports {
                // Block `port`: its length word, then its payload.
                let block = port * stride;
                if self.recv[block] != at as u64 {
                    continue;
                }
                let Some(message) = inbox.by_port(port) else {
                    continue;
                };
                let (ones, silent) = message.word_pair(start);
                // The bits before the first `⊥` (or the chunk's end).
                let stop = silent | past;
                let value = ones & !stop & stop.wrapping_sub(1);
                self.recv[block + w] |= value << shift;
                if shift != 0 && value >> (64 - shift) != 0 {
                    self.recv[block + w + 1] |= value >> (64 - shift);
                }
                self.recv[block] += u64::from(stop.trailing_zeros());
            }
            start += 64;
        }
    }

    /// Whether the exchange has run all `width` bits.
    pub fn is_complete(&self) -> bool {
        self.pos >= self.width
    }

    /// The `width`-bit field (at most 64) at bit `offset` of the
    /// payload received on `port`; `None` if that payload ended before
    /// the field's last bit (a short or silent sender, or a corrupt
    /// transcript), or if `port` is out of range.
    pub fn field(&self, port: usize, offset: usize, width: usize) -> Option<u64> {
        let block = self.block(port)?;
        (offset + width <= block[0] as usize).then(|| read(|w| block[1 + w], offset, width))
    }

    /// The payload received on `port` as LSB-first words, if it
    /// carried all `width` bits.
    pub fn payload(&self, port: usize) -> Option<&[u64]> {
        let block = self.block(port)?;
        (block[0] as usize >= self.width).then(|| &block[1..])
    }

    /// Words per port block: a length word, then the payload words.
    fn stride(&self) -> usize {
        1 + self.width.div_ceil(64)
    }

    fn block(&self, port: usize) -> Option<&[u64]> {
        let stride = self.stride();
        self.recv.get(port * stride..(port + 1) * stride)
    }
}

/// The `width` bits (at most 64) at bit `offset` of the LSB-first
/// words that `word` yields by index.
fn read(word: impl Fn(usize) -> u64, offset: usize, width: usize) -> u64 {
    let (w, shift) = (offset / 64, offset % 64);
    let mut value = word(w) >> shift;
    if shift != 0 && shift + width > 64 {
        value |= word(w + 1) << (64 - shift);
    }
    value & low_mask(width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_values() {
        for width in 1..=16 {
            for value in [0u64, 1, 2, (1 << width) - 1] {
                if value < (1 << width) {
                    assert_eq!(bits_to_u64(&u64_to_bits(value, width)), value);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overflow_rejected() {
        u64_to_bits(8, 3);
    }

    /// Streams the fields `payloads[s]` from sender `s` to one
    /// receiver that hears sender `s` on port `s`, with each round's
    /// board altered by `arrange(step, board)`; returns the receiver
    /// and the messages sender 0 sent.
    fn exchange(
        payloads: &[&[(u64, usize)]],
        rate: usize,
        width: usize,
        arrange: impl Fn(usize, &mut Vec<Message>),
    ) -> (BitStream, Vec<Message>) {
        let row: Vec<(u64, usize)> = (0..payloads.len()).map(|s| (10 + s as u64, s)).collect();
        let mut senders: Vec<BitStream> = payloads
            .iter()
            .map(|fields| {
                let mut s = BitStream::new();
                s.begin(rate, width);
                for &(value, w) in *fields {
                    s.push(value, w);
                }
                s
            })
            .collect();
        let mut receiver = BitStream::new();
        receiver.begin(rate, width);
        let mut sent = Vec::new();
        let mut step = 0;
        while !receiver.is_complete() {
            let mut board: Vec<Message> = senders.iter().map(BitStream::send).collect();
            sent.push(board[0].clone());
            for m in &board {
                assert_eq!(m.len(), rate);
            }
            arrange(step, &mut board);
            receiver.receive(&Inbox::new(&row, &board));
            let empty = Inbox::new(&[], &board);
            for s in &mut senders {
                s.receive(&empty);
            }
            step += 1;
        }
        (receiver, sent)
    }

    fn port_order(_: usize, _: &mut Vec<Message>) {}

    #[test]
    fn every_width_roundtrips() {
        for width in 1..=64usize {
            let top = low_mask(width);
            for value in [0, 1, top / 3, top] {
                let (r, sent) = exchange(&[&[(value, width)]], 1, width, port_order);
                assert_eq!(r.field(0, 0, width), Some(value), "width {width}");
                assert_eq!(sent.len(), width);
                for (k, m) in sent.iter().enumerate() {
                    assert_eq!(m.symbol(), Symbol::bit(value >> k & 1 == 1));
                }
                // No bit past the payload's end.
                assert_eq!(r.field(0, 1, width), None);
            }
        }
    }

    #[test]
    fn wide_payloads_roundtrip_at_several_rates() {
        for width in [256usize, 512] {
            let fields: Vec<(u64, usize)> = (0..width / 64)
                .map(|w| (0x9E37_79B9_7F4A_7C15u64.rotate_left(w as u32 * 7), 64))
                .collect();
            for rate in [1usize, 3, 64, 100, 512] {
                let (r, sent) = exchange(&[&fields, &fields[1..]], rate, width, port_order);
                assert_eq!(
                    sent.len(),
                    width.div_ceil(rate),
                    "width {width} rate {rate}"
                );
                let words: Vec<u64> = fields.iter().map(|&(v, _)| v).collect();
                assert_eq!(r.payload(0), Some(&words[..]), "width {width} rate {rate}");
                // The second sender's payload is one word short.
                assert_eq!(r.payload(1), None);
                for (w, pair) in words.windows(2).enumerate() {
                    assert_eq!(r.field(1, w * 64, 64), Some(pair[1]));
                    // A field across a word boundary.
                    assert_eq!(
                        r.field(0, w * 64 + 5, 64),
                        Some(pair[0] >> 5 | pair[1] << 59)
                    );
                }
                assert_eq!(r.field(1, width - 64, 64), None);
            }
        }
    }

    #[test]
    fn symbols_are_lsb_first_then_silent() {
        let mut s = BitStream::new();
        s.begin(3, 8);
        s.push(0b101, 3);
        s.push(0b1, 1);
        assert_eq!(
            s.send().symbols().collect::<Vec<_>>(),
            [Symbol::One, Symbol::Zero, Symbol::One]
        );
        s.receive(&Inbox::new(&[], &[]));
        assert_eq!(
            s.send().symbols().collect::<Vec<_>>(),
            [Symbol::One, Symbol::Silent, Symbol::Silent]
        );
        s.receive(&Inbox::new(&[], &[]));
        assert_eq!(s.send(), Message::silent(3));
        assert!(!s.is_complete());
        s.receive(&Inbox::new(&[], &[]));
        assert!(s.is_complete());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn push_rejects_an_overflowing_value() {
        BitStream::new().push(8, 3);
    }

    #[test]
    fn a_short_payload_reads_to_its_end() {
        // Sender 0 sends 4 of the 12 bits, sender 1 a 1-bit flag.
        let (r, _) = exchange(&[&[(0b1011, 4)], &[(1, 1)]], 1, 12, port_order);
        assert_eq!(r.field(0, 0, 4), Some(0b1011));
        assert_eq!(r.field(0, 0, 5), None);
        assert_eq!(r.field(0, 4, 1), None);
        assert_eq!(r.field(1, 0, 1), Some(1));
        assert_eq!(r.field(1, 1, 1), None);
        assert_eq!(r.payload(0), None);
        assert_eq!(r.field(2, 0, 1), None, "no such port");
    }

    #[test]
    fn silence_mid_payload_ends_it() {
        // Round 2 of 6 arrives silent; later bits are not read.
        let silence_at_2 = |step: usize, board: &mut Vec<Message>| {
            if step == 2 {
                board[0] = Message::silent(1);
            }
        };
        let (r, _) = exchange(&[&[(0b111111, 6)]], 1, 6, silence_at_2);
        assert_eq!(r.field(0, 0, 2), Some(0b11));
        assert_eq!(r.field(0, 0, 3), None);
        assert_eq!(r.field(0, 3, 3), None);
        assert_eq!(r.payload(0), None);
        // The same within one wide message: a `⊥` at symbol 70 of 100.
        let gap = |_: usize, board: &mut Vec<Message>| {
            let mut symbols: Vec<Symbol> = board[0].symbols().collect();
            symbols[70] = Symbol::Silent;
            board[0] = Message::from_symbols(symbols);
        };
        let (r, _) = exchange(&[&[(u64::MAX, 64), ((1 << 36) - 1, 36)]], 100, 100, gap);
        assert_eq!(r.field(0, 6, 64), Some(u64::MAX));
        assert_eq!(r.field(0, 7, 64), None);
        // A missing message (a board cut short) ends it too.
        let drop_at_1 = |step: usize, board: &mut Vec<Message>| {
            if step == 1 {
                board.clear();
            }
        };
        let (r, _) = exchange(&[&[(0b11, 2)], &[(0b10, 2)]], 1, 2, drop_at_1);
        assert_eq!(r.field(0, 0, 1), Some(1));
        assert_eq!(r.field(1, 0, 2), None);
    }

    #[test]
    fn begin_reuses_the_stream() {
        let mut s = BitStream::new();
        assert!(s.is_complete());
        assert_eq!(s.send(), Message::silent(0));
        let row = [(3, 0), (8, 1)];
        let board = |a: u64, b: u64| [Message::from_bits(a, 2), Message::from_bits(b, 2)];
        s.begin(2, 130);
        s.push(u64::MAX, 64);
        s.push(u64::MAX, 64);
        for _ in 0..65 {
            s.receive(&Inbox::new(&row, &board(0b11, 0b11)));
        }
        assert_eq!(s.field(1, 64, 64), Some(u64::MAX));
        // A narrower second exchange sees none of the first.
        s.begin(2, 4);
        s.push(0b0110, 4);
        assert!(!s.is_complete());
        assert_eq!(s.field(0, 0, 1), None);
        assert_eq!(s.send(), Message::from_bits(0b10, 2));
        s.receive(&Inbox::new(&row, &board(0b01, 0b10)));
        assert_eq!(s.send(), Message::from_bits(0b01, 2));
        s.receive(&Inbox::new(&row, &board(0b10, 0b01)));
        assert!(s.is_complete());
        assert_eq!(s.send(), Message::silent(2));
        assert_eq!(s.field(0, 0, 4), Some(0b1001));
        assert_eq!(s.field(1, 0, 4), Some(0b0110));
        assert_eq!(s.payload(0), Some(&[0b1001u64][..]));
    }
}
