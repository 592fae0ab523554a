//! Public-API edge cases of the CoAP endpoint.

use iiot_coap::message::{option, Code, Message, MsgType};
use iiot_coap::resource::Response;
use iiot_coap::{CoapEndpoint, CoapEvent, EndpointConfig};
use iiot_sim::SimTime;

type Ep = CoapEndpoint<u8>;

fn server() -> Ep {
    let mut s = Ep::new(EndpointConfig::default(), 1);
    s.add_resource("temp", Box::new(|_| Response::content(b"21".to_vec())));
    s
}

fn shuttle(a: &mut Ep, b: &mut Ep, now: SimTime) {
    for _ in 0..32 {
        let mut moved = false;
        for (_, d) in a.take_outbox() {
            b.handle_datagram(0, &d, now);
            moved = true;
        }
        for (_, d) in b.take_outbox() {
            a.handle_datagram(1, &d, now);
            moved = true;
        }
        if !moved {
            return;
        }
    }
    panic!("no quiescence");
}

#[test]
fn stop_observe_on_unknown_token_is_noop() {
    let mut c = Ep::new(EndpointConfig::default(), 2);
    c.stop_observe(&[9, 9, 9], SimTime::ZERO);
    assert!(c.take_outbox().is_empty());
    assert!(c.take_events().is_empty());
}

#[test]
fn delete_and_post_dispatch() {
    let mut s = Ep::new(EndpointConfig::default(), 1);
    let mut log: Vec<Code> = Vec::new();
    let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let seen2 = seen.clone();
    s.add_resource(
        "job",
        Box::new(move |req| {
            seen2.borrow_mut().push(req.method);
            match req.method {
                Code::Post => Response {
                    code: Code::Created,
                    payload: vec![],
                },
                Code::Delete => Response {
                    code: Code::Deleted,
                    payload: vec![],
                },
                _ => Response::method_not_allowed(),
            }
        }),
    );
    let mut c = Ep::new(EndpointConfig::default(), 2);
    let t_post = c.post(1, "job", b"spec".to_vec(), SimTime::ZERO);
    let t_del = c.delete(1, "job", SimTime::ZERO);
    shuttle(&mut c, &mut s, SimTime::ZERO);
    for ev in c.take_events() {
        if let CoapEvent::Response { token, code, .. } = ev {
            log.push(code);
            assert!(token == t_post || token == t_del);
        }
    }
    assert_eq!(log, vec![Code::Created, Code::Deleted]);
    assert_eq!(*seen.borrow(), vec![Code::Post, Code::Delete]);
}

#[test]
fn well_known_core_served_blockwise_when_large() {
    let mut s = Ep::new(EndpointConfig::default(), 1);
    for i in 0..20 {
        s.add_resource(
            &format!("very/long/resource/path/number/{i}"),
            Box::new(|_| Response::content(vec![])),
        );
    }
    let mut c = Ep::new(EndpointConfig::default(), 2);
    let token = c.get(1, ".well-known/core", SimTime::ZERO);
    shuttle(&mut c, &mut s, SimTime::ZERO);
    let ev = c.take_events();
    match &ev[0] {
        CoapEvent::Response {
            token: t,
            code,
            payload,
            ..
        } => {
            assert_eq!(t, &token);
            assert_eq!(*code, Code::Content);
            let body = String::from_utf8_lossy(payload);
            assert!(body.len() > 64, "forced blockwise: {} bytes", body.len());
            assert_eq!(body.matches("</very/").count(), 20, "fully reassembled");
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn reset_of_unknown_mid_is_harmless() {
    let mut s = server();
    s.handle_datagram(0, &Message::reset(0xABCD).encode(), SimTime::ZERO);
    assert!(s.take_outbox().is_empty());
}

#[test]
fn unknown_response_token_ignored() {
    let mut c = Ep::new(EndpointConfig::default(), 2);
    let mut bogus =
        Message::response_to(&Message::request(Code::Get, 7, vec![0xEE]), Code::Content);
    bogus.payload = b"spoof".to_vec();
    c.handle_datagram(1, &bogus.encode(), SimTime::ZERO);
    assert!(c.take_events().is_empty(), "no event for unknown token");
}

#[test]
fn separate_con_response_gets_empty_ack() {
    let mut c = Ep::new(EndpointConfig::default(), 2);
    let token = c.get(1, "temp", SimTime::ZERO);
    c.take_outbox();
    // The server answers later with a *confirmable* separate response.
    let mut resp = Message {
        mtype: MsgType::Confirmable,
        code: Code::Content,
        message_id: 0x9000,
        token: token.clone(),
        options: Vec::new(),
        payload: b"21".to_vec(),
    };
    resp.add_option(option::CONTENT_FORMAT, vec![0]);
    c.handle_datagram(1, &resp.encode(), SimTime::ZERO);
    // The client must ACK the CON response.
    let out = c.take_outbox();
    assert_eq!(out.len(), 1);
    let ack = Message::decode(&out[0].1).expect("decodes");
    assert_eq!(ack.mtype, MsgType::Ack);
    assert_eq!(ack.code, Code::Empty);
    assert_eq!(ack.message_id, 0x9000);
    // And surface the response.
    let ev = c.take_events();
    assert!(matches!(&ev[0], CoapEvent::Response { token: t, .. } if *t == token));
}
