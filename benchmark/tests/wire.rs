//! The reply reader of one pipelined `UPDATE` + `GRAPH` op.

use incgraph_benchmark::wire::{read_op_replies, OpReplies, ReplySource};
use incgraph_service::store::Ack;
use incgraph_service::{ClientError, Reply};
use std::collections::VecDeque;

struct Script(VecDeque<Reply>);

impl ReplySource for Script {
    fn next_reply(&mut self) -> Result<Reply, ClientError> {
        self.0.pop_front().ok_or(ClientError::Closed)
    }
}

fn script(replies: impl IntoIterator<Item = Reply>) -> Script {
    Script(replies.into_iter().collect())
}

fn ack(seq: u64) -> Reply {
    Reply::Ack(Ack {
        client_seq: seq,
        wal_seq: seq + 100,
        units: 16,
        dup: false,
    })
}

fn ok_graph() -> Reply {
    Reply::Ok("GRAPH g".into())
}

#[test]
fn ack_then_ok_graph() {
    let mut s = script([ack(4), ok_graph(), ack(5)]);
    let OpReplies::Done {
        ack,
        ack_at,
        fresh_at,
    } = read_op_replies(&mut s).unwrap()
    else {
        panic!("expected Done");
    };
    assert_eq!((ack.client_seq, ack.wal_seq), (4, 104));
    assert!(ack_at <= fresh_at);
    assert_eq!(s.0.len(), 1, "exactly the op's two replies are consumed");
}

#[test]
fn ok_graph_then_ack_under_semi_sync() {
    // With a replica attached the ACK waits for the watermark and can
    // arrive after the OK GRAPH.
    let mut s = script([ok_graph(), ack(9)]);
    let OpReplies::Done {
        ack,
        ack_at,
        fresh_at,
    } = read_op_replies(&mut s).unwrap()
    else {
        panic!("expected Done");
    };
    assert_eq!(ack.client_seq, 9);
    assert!(fresh_at <= ack_at);
}

#[test]
fn busy_for_either_command_asks_for_a_resend() {
    let busy = |ms| Reply::Busy { retry_after_ms: ms };
    for replies in [
        vec![busy(50), busy(70)],
        vec![ack(1), busy(50)],
        vec![busy(70), ok_graph()],
    ] {
        let hint = replies
            .iter()
            .filter_map(|r| match r {
                Reply::Busy { retry_after_ms } => Some(*retry_after_ms),
                _ => None,
            })
            .max()
            .unwrap();
        assert_eq!(
            read_op_replies(&mut script(replies)).unwrap(),
            OpReplies::Busy {
                retry_after_ms: hint
            }
        );
    }
}

#[test]
fn err_fails_the_op() {
    let err = Reply::Err {
        code: "seq-gap".into(),
        detail: "expected seq 3 or 4".into(),
    };
    for replies in [vec![err.clone(), ok_graph()], vec![ack(1), err]] {
        match read_op_replies(&mut script(replies)) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, "seq-gap"),
            other => panic!("expected a server error, got {other:?}"),
        }
    }
}

#[test]
fn anything_else_is_a_protocol_error() {
    for replies in [
        vec![ack(1), ack(1)],
        vec![ok_graph(), ok_graph()],
        vec![Reply::Pong, ack(1)],
        vec![Reply::Ok("REGISTER q 5".into()), ack(1)],
    ] {
        assert!(matches!(
            read_op_replies(&mut script(replies)),
            Err(ClientError::Protocol(_))
        ));
    }
    assert!(matches!(
        read_op_replies(&mut script([ack(1)])),
        Err(ClientError::Closed)
    ));
}
